// Package memsys composes the hardware models — GPU device memory (HBM),
// host DRAM, the PM device, the LLC/DDIO domain, and the PCIe link — into a
// single virtual address space, mirroring CUDA's Unified Virtual Addressing:
// once a PM range is mapped, the same pointer works from GPU kernels and CPU
// code (§3.1).
package memsys

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/gpm-sim/gpm/internal/arena"
	"github.com/gpm-sim/gpm/internal/cache"
	"github.com/gpm-sim/gpm/internal/pcie"
	"github.com/gpm-sim/gpm/internal/pmem"
	"github.com/gpm-sim/gpm/internal/sim"
	"github.com/gpm-sim/gpm/internal/telemetry"
)

// Region bases in the unified virtual address space. Address 0 is reserved
// so that 0 can serve as a null pointer.
const (
	HBMBase  uint64 = 0x1000_0000_0000
	DRAMBase uint64 = 0x2000_0000_0000
	PMBase   uint64 = 0x3000_0000_0000
)

// Kind identifies which physical region a virtual address resolves to.
type Kind int

// Address kinds.
const (
	KindInvalid Kind = iota
	KindHBM          // GPU device memory: fast, volatile, local to the GPU
	KindDRAM         // host DRAM: volatile, behind PCIe from the GPU
	KindPM           // persistent memory: durable once persisted, behind PCIe
)

func (k Kind) String() string {
	switch k {
	case KindHBM:
		return "HBM"
	case KindDRAM:
		return "DRAM"
	case KindPM:
		return "PM"
	default:
		return "invalid"
	}
}

const atomicStripes = 256

// Space is the unified virtual address space of one simulated node.
type Space struct {
	Params *sim.Params
	PM     *pmem.Device
	LLC    *cache.Domain
	Link   *pcie.Link
	DMA    *pcie.DMA

	hbm  region
	dram region

	pmNext atomic.Uint64

	// seqNext allocates ambient (host-serial) canonical sequence numbers
	// for PM traffic. GPU kernels and CPU phases instead reserve a window
	// with SeqMark/SeqAdvance and stamp each access with a sequence derived
	// from its program position, so the ordering that the LLC drain and the
	// crash fault models observe is schedule-independent.
	seqNext atomic.Uint64

	ddioOff atomic.Bool
	eADR    atomic.Bool

	locks [atomicStripes]sync.Mutex
}

// region is one volatile memory. Every byte ever written lies below the
// allocator's high-water mark next, which is what lets a crash or a
// Release clear only [0, next).
type region struct {
	data []byte
	next atomic.Uint64
}

// volatilePool recycles the HBM and DRAM arrays of released nodes.
var volatilePool arena.Pool[byte]

// wipe zeroes everything ever allocated in the region.
func (r *region) wipe() { clear(r.data[:r.next.Load()]) }

// release hands the array back to the pool; the region is unusable after.
func (r *region) release() {
	if r.data != nil {
		volatilePool.Put(r.data, int(r.next.Load()))
		r.data = nil
	}
}

// Config sizes the three regions.
type Config struct {
	HBMSize  int64
	DRAMSize int64
	PMSize   int64
}

// DefaultConfig returns region sizes adequate for the scaled-down GPMbench
// suite (the paper's GB-scale inputs are scaled to MBs; see DESIGN.md §5).
// Allocating a fresh node is common in tests, so the regions stay modest.
func DefaultConfig() Config {
	return Config{
		HBMSize:  64 << 20,
		DRAMSize: 64 << 20,
		PMSize:   128 << 20,
	}
}

// New builds a Space with the given parameters and region sizes. Its
// backing arrays come from nodes released earlier when sizes match; every
// region reads all zero either way.
func New(params *sim.Params, cfg Config) *Space {
	dev := pmem.New(params, cfg.PMSize)
	link := pcie.NewLink(params)
	s := &Space{
		Params: params,
		PM:     dev,
		LLC:    cache.NewDomain(params, dev),
		Link:   link,
		DMA:    pcie.NewDMA(link),
	}
	s.hbm.data = volatilePool.Get(int(cfg.HBMSize))
	s.dram.data = volatilePool.Get(int(cfg.DRAMSize))
	return s
}

// Release hands the node's HBM, DRAM and PM arrays back for reuse by a
// later New. Only a node nothing will touch again may be released: a run
// that has returned its report, never a long-lived node such as a serving
// shard. Afterwards every access panics rather than reach memory that now
// backs another node.
func (s *Space) Release() {
	s.hbm.release()
	s.dram.release()
	s.PM.Release()
}

// AttachTelemetry mirrors the PM device, LLC, and PCIe link counters into
// the registry (pmem.*, llc.*, pcie.*). Passing nil detaches all three.
func (s *Space) AttachTelemetry(r *telemetry.Registry) {
	s.PM.AttachTelemetry(r)
	s.LLC.AttachTelemetry(r)
	s.Link.AttachTelemetry(r)
}

// KindOf classifies a virtual address.
func (s *Space) KindOf(addr uint64) Kind {
	switch {
	case addr >= PMBase && addr < PMBase+uint64(s.PM.Size()):
		return KindPM
	case addr >= DRAMBase && addr < DRAMBase+uint64(len(s.dram.data)):
		return KindDRAM
	case addr >= HBMBase && addr < HBMBase+uint64(len(s.hbm.data)):
		return KindHBM
	default:
		return KindInvalid
	}
}

// ---- Allocation ----

func alignUp(x uint64, align uint64) uint64 {
	if align == 0 {
		align = 1
	}
	return (x + align - 1) / align * align
}

func (r *region) alloc(n int64, align uint64, base uint64, name string) uint64 {
	for {
		cur := r.next.Load()
		start := alignUp(cur, align)
		end := start + uint64(n)
		if end > uint64(len(r.data)) {
			panic(fmt.Sprintf("memsys: %s out of memory (want %d, used %d of %d)", name, n, cur, len(r.data)))
		}
		if r.next.CompareAndSwap(cur, end) {
			return base + start
		}
	}
}

// AllocHBM reserves n bytes of GPU device memory, 256B-aligned.
func (s *Space) AllocHBM(n int64) uint64 { return s.hbm.alloc(n, 256, HBMBase, "HBM") }

// AllocDRAM reserves n bytes of host DRAM, 256B-aligned.
func (s *Space) AllocDRAM(n int64) uint64 { return s.dram.alloc(n, 256, DRAMBase, "DRAM") }

// AllocPM reserves n bytes of persistent memory with the given alignment
// (0 means 256, Optane's internal block; pass 1 to get deliberately
// unaligned allocations for the pattern experiments).
func (s *Space) AllocPM(n int64, align uint64) uint64 {
	if align == 0 {
		align = 256
	}
	for {
		cur := s.pmNext.Load()
		start := alignUp(cur, align)
		end := start + uint64(n)
		if end > uint64(s.PM.Size()) {
			panic(fmt.Sprintf("memsys: PM out of memory (want %d, used %d of %d)", n, cur, s.PM.Size()))
		}
		if s.pmNext.CompareAndSwap(cur, end) {
			return PMBase + start
		}
	}
}

// PMUsed returns the bytes of PM allocated so far.
func (s *Space) PMUsed() int64 { return int64(s.pmNext.Load()) }

// ---- Mode switches (DDIO / eADR) ----

// SetDDIOOff disables DDIO for inbound I/O writes: GPU stores to PM bypass
// the LLC, so a system-scoped fence drains them into the ADR persistence
// domain (gpm_persist_begin). SetDDIOOff(false) re-enables DDIO
// (gpm_persist_end).
func (s *Space) SetDDIOOff(off bool) { s.ddioOff.Store(off) }

// DDIOOff reports whether DDIO is currently disabled.
func (s *Space) DDIOOff() bool { return s.ddioOff.Load() }

// SetEADR enables eADR: the cache hierarchy joins the persistence domain,
// so reaching the LLC suffices for durability.
func (s *Space) SetEADR(on bool) {
	s.eADR.Store(on)
	s.LLC.SetEADR(on)
}

// EADR reports whether eADR is enabled.
func (s *Space) EADR() bool { return s.eADR.Load() }

// ---- Canonical write sequencing ----

// NextSeq allocates one ambient canonical sequence number. Ambient traffic
// (host code running serially between kernel launches and CPU phases) is
// already deterministically ordered, so a shared counter suffices for it.
func (s *Space) NextSeq() uint64 { return s.seqNext.Add(1) }

// SeqMark returns the current sequence high-water mark. A kernel launch or
// CPU phase captures it as the base of its canonical sequence window.
func (s *Space) SeqMark() uint64 { return s.seqNext.Load() }

// SeqAdvance moves the sequence allocator past a window reserved with
// SeqMark. Called at kernel/phase exit while the host is serial.
func (s *Space) SeqAdvance(to uint64) {
	if to > s.seqNext.Load() {
		s.seqNext.Store(to)
	}
}

// DrainPersistence replays buffered LLC cache/flush events in canonical
// order. Called at quiescent points: kernel launch exit, CPU phase exit.
func (s *Space) DrainPersistence() { s.LLC.Drain() }

// ---- Data movement ----

func (s *Space) resolve(addr uint64, n int) (Kind, uint64) {
	switch {
	case addr >= PMBase:
		off := addr - PMBase
		if off+uint64(n) > uint64(s.PM.Size()) {
			panic(fmt.Sprintf("memsys: PM access out of range addr=%#x n=%d", addr, n))
		}
		return KindPM, off
	case addr >= DRAMBase:
		off := addr - DRAMBase
		if off+uint64(n) > uint64(len(s.dram.data)) {
			panic(fmt.Sprintf("memsys: DRAM access out of range addr=%#x n=%d", addr, n))
		}
		return KindDRAM, off
	case addr >= HBMBase:
		off := addr - HBMBase
		if off+uint64(n) > uint64(len(s.hbm.data)) {
			panic(fmt.Sprintf("memsys: HBM access out of range addr=%#x n=%d", addr, n))
		}
		return KindHBM, off
	default:
		panic(fmt.Sprintf("memsys: invalid address %#x", addr))
	}
}

// Read copies n=len(p) bytes at addr into p. Readers always observe the
// latest write regardless of durability.
func (s *Space) Read(addr uint64, p []byte) {
	kind, off := s.resolve(addr, len(p))
	switch kind {
	case KindPM:
		s.PM.Read(off, p)
	case KindDRAM:
		copy(p, s.dram.data[off:])
	case KindHBM:
		copy(p, s.hbm.data[off:])
	}
}

// WriteGPU performs a store issued by a GPU thread. Writes to PM follow the
// DDIO setting: with DDIO on they are absorbed by the LLC (volatile, subject
// to natural eviction, durable immediately under eADR); with DDIO off they
// are in flight toward the ADR domain and become durable at the issuing
// thread's next system-scoped fence. The returned line addresses (virtual)
// are what that fence must persist; nil for non-PM targets.
// Ambient (host-serial) callers use the seq-less wrappers below. They drain
// the LLC event buffer immediately after each access: ambient code is
// already deterministically ordered, and eager application preserves exact
// store→flush→store semantics on a line (the deferred drain keeps only the
// newest contents, so it cannot persist an intermediate version — that
// deferral is reserved for kernel/phase windows, where it is documented).
func (s *Space) WriteGPU(addr uint64, p []byte) []uint64 {
	lines := s.WriteGPUSeq(addr, p, s.NextSeq())
	s.LLC.Drain()
	return lines
}

// WriteGPUSeq is WriteGPU with a caller-supplied canonical sequence number
// (GPU threads stamp each store with its program position).
func (s *Space) WriteGPUSeq(addr uint64, p []byte, seq uint64) []uint64 {
	return s.WriteGPUSeqInto(nil, addr, p, seq)
}

// WriteGPUSeqInto is WriteGPUSeq appending the to-persist line addresses to
// dst, so the GPU store hot path can reuse one scratch slice per thread.
// The returned slice may share dst's backing array.
func (s *Space) WriteGPUSeqInto(dst []uint64, addr uint64, p []byte, seq uint64) []uint64 {
	kind, off := s.resolve(addr, len(p))
	switch kind {
	case KindPM:
		if !s.ddioOff.Load() {
			// dst's spare capacity holds the lines on their way into the
			// LLC, which copies them. The fence cannot persist LLC-resident
			// lines, so nothing is appended to dst.
			lines := s.PM.WriteSeqInto(dst, off, p, seq)
			s.LLC.CacheLines(lines[len(dst):], seq)
			return lines[:len(dst)]
		}
		base := len(dst)
		lines := s.PM.WriteSeqInto(dst, off, p, seq)
		for i := base; i < len(lines); i++ {
			lines[i] += PMBase
		}
		return lines
	case KindDRAM:
		copy(s.dram.data[off:], p)
	case KindHBM:
		copy(s.hbm.data[off:], p)
	}
	return dst
}

// WriteCPU performs a store issued by a CPU thread. PM stores land in the
// CPU caches (volatile until CLFLUSHOPT+SFENCE, or durable at once under
// eADR); the returned virtual line addresses are what a flush must cover.
func (s *Space) WriteCPU(addr uint64, p []byte) []uint64 {
	lines := s.WriteCPUSeq(addr, p, s.NextSeq())
	s.LLC.Drain()
	return lines
}

// WriteCPUSeq is WriteCPU with a caller-supplied canonical sequence number
// (cpusim threads stamp each store with its phase position).
func (s *Space) WriteCPUSeq(addr uint64, p []byte, seq uint64) []uint64 {
	kind, off := s.resolve(addr, len(p))
	switch kind {
	case KindPM:
		lines := s.PM.WriteSeq(off, p, seq)
		s.LLC.CacheLines(lines, seq) // copied before the rebase below
		if s.eADR.Load() {
			return nil
		}
		for i := range lines {
			lines[i] += PMBase
		}
		return lines
	case KindDRAM:
		copy(s.dram.data[off:], p)
	case KindHBM:
		copy(s.hbm.data[off:], p)
	}
	return nil
}

// SetPowerFailed latches (or clears) the power-failure instant. The latch
// lives on the PM device, where every durability path (fence flush, DDIO
// write-back, eADR instant persist) terminates — so code that keeps running
// after an injected mid-recovery crash cannot retroactively make state
// durable through any route. Buffered cache events drain first: traffic
// issued before the failure instant still reaches the persistence domain.
func (s *Space) SetPowerFailed(v bool) {
	if v {
		s.LLC.Drain()
	}
	s.PM.SetPowerFailed(v)
}

// PowerFailAtSeq latches the power failure at an explicit canonical
// sequence cut: pre-cut traffic drains into the persistence domain, and
// writes sequenced after the cut unconditionally roll back at the next
// crash. The parallel engine uses this to pin a mid-kernel failure to the
// canonical instant of the first aborted operation. The latch is set before
// the drain: the buffered events span the whole kernel window, and the
// replay must persist only those sequenced at or before the cut.
func (s *Space) PowerFailAtSeq(cut uint64) {
	s.PM.SetPowerFailedAt(cut)
	s.LLC.Drain()
}

// PowerFailed reports whether the power-failure latch is set.
func (s *Space) PowerFailed() bool { return s.PM.PowerFailed() }

// PersistLines makes the given virtual PM lines durable (fence with DDIO
// off, or an explicit CPU flush).
func (s *Space) PersistLines(lines []uint64) {
	s.PersistLinesSeq(lines, s.NextSeq())
	s.LLC.Drain()
}

// PersistLinesSeq is PersistLines stamped with the canonical sequence of
// the fence that issued it.
func (s *Space) PersistLinesSeq(lines []uint64, seq uint64) {
	s.PersistLinesSeqInto(make([]uint64, 0, len(lines)), lines, seq)
}

// PersistLinesSeqInto is PersistLinesSeq translating the lines in the
// caller's scratch dst, which it returns for reuse: the LLC copies them.
// dst may share lines' array: the translation never overtakes its input.
func (s *Space) PersistLinesSeqInto(dst, lines []uint64, seq uint64) []uint64 {
	dst = dst[:0]
	for _, la := range lines {
		if la >= PMBase {
			dst = append(dst, la-PMBase)
		}
	}
	s.LLC.FlushLines(dst, seq)
	return dst
}

// PersistRange makes every line overlapping the virtual PM range durable.
func (s *Space) PersistRange(addr uint64, n int) {
	s.PersistRangeSeq(addr, n, s.NextSeq())
	s.LLC.Drain()
}

// PersistRangeSeq is PersistRange stamped with the canonical sequence of
// the flush that issued it.
func (s *Space) PersistRangeSeq(addr uint64, n int, seq uint64) {
	if n <= 0 {
		return
	}
	kind, off := s.resolve(addr, n)
	if kind != KindPM {
		return
	}
	line := uint64(s.Params.LineSize())
	first := off / line * line
	last := (off + uint64(n) - 1) / line * line
	lines := make([]uint64, 0, (last-first)/line+1)
	for la := first; la <= last; la += line {
		lines = append(lines, la)
	}
	s.LLC.FlushLines(lines, seq)
}

// Persisted reports whether the virtual PM range is fully durable.
func (s *Space) Persisted(addr uint64, n int) bool {
	kind, off := s.resolve(addr, n)
	if kind != KindPM {
		return false
	}
	s.LLC.Drain()
	return s.PM.Persisted(off, n)
}

// SnapshotPersistent returns the durable image of a virtual PM range.
func (s *Space) SnapshotPersistent(addr uint64, n int) []byte {
	kind, off := s.resolve(addr, n)
	if kind != KindPM {
		panic("memsys: SnapshotPersistent on non-PM address")
	}
	s.LLC.Drain()
	return s.PM.SnapshotPersistent(off, n)
}

// Crash simulates a power failure: volatile regions (HBM, DRAM) are wiped,
// caches are discarded, and PM rolls back to its durable image. Under eADR
// the cache contents drain first (§3.3), so everything written survives.
func (s *Space) Crash() {
	s.CrashWith(nil, 0)
}

// CrashWith is Crash under an adversarial fault model (see pmem.FaultModel):
// the model decides which unpersisted PM writes survive. Under eADR the
// caches are in the persistence domain, so the drain happens first and the
// model sees nothing dirty. The power-failure latch is cleared: the failure
// instant has passed and the node is rebooting.
func (s *Space) CrashWith(model pmem.FaultModel, seed uint64) pmem.CrashStats {
	// Apply buffered cache traffic first: it was issued before this crash
	// instant. (Under a power-fail latch the persists inside the drain are
	// no-ops, which is exactly right — that traffic died with the power.)
	s.LLC.Drain()
	if s.eADR.Load() {
		s.LLC.FlushAll()
	}
	s.LLC.Crash()
	st := s.PM.CrashWith(model, seed)
	s.hbm.wipe()
	s.dram.wipe()
	return st
}

// ---- Typed accessors (host-side convenience; GPU threads use gpu.Thread) ----

// ReadU32 loads a little-endian uint32 at addr.
func (s *Space) ReadU32(addr uint64) uint32 {
	var b [4]byte
	s.Read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// ReadU64 loads a little-endian uint64 at addr.
func (s *Space) ReadU64(addr uint64) uint64 {
	var b [8]byte
	s.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// ReadF32 loads a float32 at addr.
func (s *Space) ReadF32(addr uint64) float32 {
	return math.Float32frombits(s.ReadU32(addr))
}

// ReadF64 loads a float64 at addr.
func (s *Space) ReadF64(addr uint64) float64 {
	return math.Float64frombits(s.ReadU64(addr))
}

// WriteU32 stores v at addr from the CPU and returns the dirty lines.
func (s *Space) WriteU32(addr uint64, v uint32) []uint64 {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return s.WriteCPU(addr, b[:])
}

// WriteU64 stores v at addr from the CPU and returns the dirty lines.
func (s *Space) WriteU64(addr uint64, v uint64) []uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return s.WriteCPU(addr, b[:])
}

// WriteF32 stores v at addr from the CPU and returns the dirty lines.
func (s *Space) WriteF32(addr uint64, v float32) []uint64 {
	return s.WriteU32(addr, math.Float32bits(v))
}

// WriteF64 stores v at addr from the CPU and returns the dirty lines.
func (s *Space) WriteF64(addr uint64, v float64) []uint64 {
	return s.WriteU64(addr, math.Float64bits(v))
}

// LockFor returns the striped mutex guarding atomic operations on addr.
func (s *Space) LockFor(addr uint64) *sync.Mutex {
	return &s.locks[(addr>>2)%atomicStripes]
}
