// Package cpusim models multi-threaded CPU execution phases: per-thread
// simulated clocks, stores with CLFLUSHOPT/SFENCE persistence, memcpy, and
// the aggregate-PM-bandwidth bound that makes CPU-side persistence plateau
// (the paper's Fig 3a: 64 threads reach only 1.47× one thread). It is the
// substrate for the CAP baselines and for the CPU-only PM applications in
// Fig 1.
package cpusim

import (
	"encoding/binary"
	"math"
	"sync"

	"github.com/gpm-sim/gpm/internal/memsys"
	"github.com/gpm-sim/gpm/internal/sim"
)

// Host is the CPU side of the simulated node.
type Host struct {
	Params *sim.Params
	Space  *memsys.Space
}

// NewHost returns a host executing against space.
func NewHost(space *memsys.Space) *Host {
	return &Host{Params: space.Params, Space: space}
}

// Thread is one CPU worker inside a phase.
type Thread struct {
	host *Host
	// ID is the thread index within the phase; N is the phase width.
	ID, N int

	clock     sim.Duration
	pmBytes   int64
	unflushed []uint64 // PM lines stored but not yet flushed
	flushed   []uint64 // PM lines flushed but not yet drained

	// seqBase/opIdx give every persistence-relevant operation a canonical
	// sequence number (round-robin interleaved across the phase's threads)
	// so the dirty-line ordering is the same no matter how the OS
	// scheduled the goroutines. pmStats accumulates this thread's PM write
	// pattern; Run merges the per-thread stats in thread-ID order.
	seqBase uint64
	opIdx   int64
	pmStats sim.AccessStats
}

// nextSeq allocates the canonical sequence for this thread's next op.
func (t *Thread) nextSeq() uint64 {
	t.opIdx++
	return t.seqBase + uint64((t.opIdx-1)*int64(t.N)+int64(t.ID)) + 1
}

// Host returns the owning host.
func (t *Thread) Host() *Host { return t.host }

// Space returns the unified memory space.
func (t *Thread) Space() *memsys.Space { return t.host.Space }

// Clock returns the thread's accumulated simulated time in this phase.
func (t *Thread) Clock() sim.Duration { return t.clock }

// Compute accounts d of computation.
func (t *Thread) Compute(d sim.Duration) {
	t.clock += sim.Duration(float64(d) * t.host.Params.CPUComputeScale)
}

// Write stores p at addr. PM stores land in the CPU caches: volatile until
// FlushRange+Drain (or durable immediately under eADR). Small scattered
// stores pay a cache-miss latency (write-allocate on PM reads the line
// from Optane first); bulk stores stream at the store bandwidth.
func (t *Thread) Write(addr uint64, p []byte) {
	sp := t.host.Space
	lines := sp.WriteCPUSeq(addr, p, t.nextSeq())
	t.unflushed = append(t.unflushed, lines...)
	par := t.host.Params
	kind := sp.KindOf(addr)
	switch kind {
	case memsys.KindPM:
		t.pmBytes += int64(len(p))
		cost := sim.DurationOfBytes(int64(len(p)), par.CPUStoreBandwidth)
		if len(p) <= par.LineSize() {
			cost = sim.MaxDuration(cost, par.PMReadLatency) // write-allocate miss
		}
		t.clock += cost
		t.recordPM(addr, len(p))
	default:
		cost := sim.DurationOfBytes(int64(len(p)), par.DRAMBandwidth)
		if len(p) <= par.LineSize() {
			cost = sim.MaxDuration(cost, par.DRAMLatency/2)
		}
		t.clock += cost
	}
}

// Read loads len(p) bytes at addr. Small scattered reads pay the media
// latency; bulk reads stream at bandwidth.
func (t *Thread) Read(addr uint64, p []byte) {
	sp := t.host.Space
	sp.Read(addr, p)
	par := t.host.Params
	switch sp.KindOf(addr) {
	case memsys.KindPM:
		cost := sim.DurationOfBytes(int64(len(p)), par.PMReadBandwidth)
		if len(p) <= par.LineSize() {
			cost = sim.MaxDuration(cost, par.PMReadLatency)
		}
		t.clock += cost
	default:
		cost := sim.DurationOfBytes(int64(len(p)), par.DRAMBandwidth)
		if len(p) <= par.LineSize() {
			cost = sim.MaxDuration(cost, par.DRAMLatency)
		}
		t.clock += cost
	}
}

// Memcpy copies n bytes from src to dst through the CPU in chunks,
// accounting both the read and the write sides.
func (t *Thread) Memcpy(dst, src uint64, n int64) {
	const chunk = 1 << 16
	buf := make([]byte, chunk)
	for off := int64(0); off < n; off += chunk {
		c := n - off
		if c > chunk {
			c = chunk
		}
		t.Read(src+uint64(off), buf[:c])
		t.Write(dst+uint64(off), buf[:c])
	}
}

// FlushRange issues CLFLUSHOPT for every line overlapping [addr, addr+n):
// the lines become durable once the following Drain completes.
func (t *Thread) FlushRange(addr uint64, n int64) {
	if n <= 0 {
		return
	}
	p := t.host.Params
	line := uint64(p.LineSize())
	first := addr / line * line
	last := (addr + uint64(n) - 1) / line * line
	nl := int64((last-first)/line + 1)
	t.clock += sim.Duration(nl) * p.CPUFlushCost
	for la := first; la <= last; la += line {
		t.flushed = append(t.flushed, la)
	}
	// Lines covered by this flush are no longer merely "unflushed".
	t.unflushed = t.unflushed[:0]
}

// FlushWrites issues CLFLUSHOPT for exactly the lines this thread has
// stored to since its last flush, regardless of where they are.
func (t *Thread) FlushWrites() {
	p := t.host.Params
	t.clock += sim.Duration(len(t.unflushed)) * p.CPUFlushCost
	t.flushed = append(t.flushed, t.unflushed...)
	t.unflushed = t.unflushed[:0]
}

// Drain is SFENCE: it waits for pending flushes to complete, making the
// flushed lines durable.
func (t *Thread) Drain() {
	t.clock += t.host.Params.CPUDrainCost
	t.flushed = t.host.Space.PersistLinesSeqInto(t.flushed, t.flushed, t.nextSeq())[:0]
}

// FlushForeignRange flushes lines that some OTHER agent (the GPU, via
// DDIO) wrote: unlike flushing one's own stores, the data still has to
// drain from the LLC into PM, so the bytes count against the CPU→PM
// bandwidth. This is GPM-NDP's persistence path (§6.1: "CPU threads have
// to flush individual cache lines", adding significant serialization).
func (t *Thread) FlushForeignRange(addr uint64, n int64) {
	if n <= 0 {
		return
	}
	p := t.host.Params
	line := uint64(p.LineSize())
	first := addr / line * line
	last := (addr + uint64(n) - 1) / line * line
	nl := int64((last-first)/line + 1)
	t.clock += sim.Duration(nl) * p.CPUFlushCost
	t.pmBytes += nl * int64(line)
	for la := first; la <= last; la += line {
		t.flushed = append(t.flushed, la)
	}
}

// PersistForeignRange is FlushForeignRange followed by Drain.
func (t *Thread) PersistForeignRange(addr uint64, n int64) {
	if t.host.Space.EADR() {
		t.clock += t.host.Params.CPUDrainCost
		return
	}
	t.FlushForeignRange(addr, n)
	t.Drain()
}

// PersistRange is the common flush-then-drain idiom.
func (t *Thread) PersistRange(addr uint64, n int64) {
	if t.host.Space.EADR() {
		// Under eADR stores are already in the persistence domain; only
		// the ordering fence remains (§3.3).
		t.clock += t.host.Params.CPUDrainCost
		return
	}
	t.FlushRange(addr, n)
	t.Drain()
}

// ---- Typed helpers ----

// WriteU32 stores a little-endian uint32.
func (t *Thread) WriteU32(addr uint64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	t.Write(addr, b[:])
}

// ReadU32 loads a little-endian uint32.
func (t *Thread) ReadU32(addr uint64) uint32 {
	var b [4]byte
	t.Read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteU64 stores a little-endian uint64.
func (t *Thread) WriteU64(addr uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	t.Write(addr, b[:])
}

// ReadU64 loads a little-endian uint64.
func (t *Thread) ReadU64(addr uint64) uint64 {
	var b [8]byte
	t.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteF32 stores a float32.
func (t *Thread) WriteF32(addr uint64, v float32) { t.WriteU32(addr, math.Float32bits(v)) }

// ReadF32 loads a float32.
func (t *Thread) ReadF32(addr uint64) float32 { return math.Float32frombits(t.ReadU32(addr)) }

// WriteF64 stores a float64.
func (t *Thread) WriteF64(addr uint64, v float64) { t.WriteU64(addr, math.Float64bits(v)) }

// ReadF64 loads a float64.
func (t *Thread) ReadF64(addr uint64) float64 { return math.Float64frombits(t.ReadU64(addr)) }

// recordPM feeds the thread's write-pattern statistics, chunked at Optane's
// 256B internal granularity so sequentiality is observable. Stats stay
// thread-local until Run merges them in thread-ID order — recording into
// the shared device stats from concurrent threads would make the
// sequential/random classification depend on goroutine scheduling.
func (t *Thread) recordPM(addr uint64, n int) {
	local := addr - memsys.PMBase
	for n > 0 {
		c := 256 - int(local%256)
		if c > n {
			c = n
		}
		t.pmStats.Record(local, c)
		local += uint64(c)
		n -= c
	}
}

// Run executes fn on n concurrent CPU threads and returns the phase's
// simulated duration: the slowest thread's clock, bounded below by the
// aggregate CPU→PM bandwidth for the phase's total persistent traffic.
func (h *Host) Run(n int, fn func(*Thread)) sim.Duration {
	if n < 1 {
		n = 1
	}
	seqBase := h.Space.SeqMark()
	threads := make([]*Thread, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		threads[i] = &Thread{host: h, ID: i, N: n, seqBase: seqBase}
		wg.Add(1)
		go func(t *Thread) {
			defer wg.Done()
			fn(t)
		}(threads[i])
	}
	wg.Wait()
	var crit sim.Duration
	var pmBytes int64
	var maxOps int64
	for _, t := range threads {
		if t.clock > crit {
			crit = t.clock
		}
		pmBytes += t.pmBytes
		if t.opIdx > maxOps {
			maxOps = t.opIdx
		}
		// Thread-ID order: deterministic regardless of scheduling.
		h.Space.PM.WriteStats.Merge(&t.pmStats)
	}
	h.Space.SeqAdvance(seqBase + uint64(maxOps)*uint64(n))
	h.Space.DrainPersistence()
	bound := sim.DurationOfBytes(pmBytes, h.Params.CPUPMBandwidth(n))
	return sim.MaxDuration(crit, bound)
}
