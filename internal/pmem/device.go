// Package pmem models an Intel Optane DC Persistent Memory module: a
// byte-addressable device whose media is durable, fronted by volatile
// buffering (CPU caches / DDIO-filled LLC / in-flight PCIe writes) that is
// lost on power failure.
//
// The device keeps a single "current contents" array that all readers and
// writers see, plus a rollback overlay: for every 64-byte line that has been
// written but not yet persisted, the overlay stores the line's last durable
// bytes. Persisting a line discards its overlay entry; a crash rolls every
// overlay entry back, reconstructing exactly the durable image. This gives
// byte-exact crash semantics without duplicating the whole device.
//
// The overlay is split into lock shards by line number. Each shard keeps
// its entries in a slab — a dense slice of (line, sequence) records plus
// one arena holding their old images at the same positions — and a
// device-wide direct index maps a line number to its slab slot. Dirtying a
// line appends to the slab; persisting one moves the slab's last entry into
// its place, so a shard whose lines have all persisted (or crashed) is an
// empty slab that keeps its capacity. Once warm, the write path allocates
// nothing. Release hands the media and the line index to the next device
// of the same size, clearing only the lines that were ever dirtied.
package pmem

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/gpm-sim/gpm/internal/arena"
	"github.com/gpm-sim/gpm/internal/sim"
	"github.com/gpm-sim/gpm/internal/telemetry"
)

const shardCount = 64

// Device is a simulated PM module. All addresses are device-local offsets in
// [0, Size()).
type Device struct {
	params *sim.Params
	data   []byte
	line   uint64 // persistence tracking granularity (64B)

	shards [shardCount]shard
	// slot maps a line number to 1 + the index of its entry in its shard's
	// slab; 0 means the line is durable. An element is only touched under
	// the shard lock of its line.
	slot []int32

	// writeSeq orders dirty lines by their most recent write, so crash
	// fault models (Reorder in particular) can reason about the
	// unpersisted write sequence. Callers driving the device through
	// memsys.Space supply canonical (schedule-independent) sequence
	// numbers via WriteSeq; writeSeq is the fallback allocator for
	// direct-device users. maxSeq tracks the highest sequence number the
	// device has seen from either source.
	writeSeq atomic.Uint64
	maxSeq   atomic.Uint64

	// powerOff latches the power-failure instant (set by the fault
	// injector when an abort fires mid-recovery). While set, nothing can
	// become durable: persists are no-ops and writes issued after the
	// latch (seq > powerCut) unconditionally roll back at the next crash —
	// they happened after the machine died, so no fault model may let
	// them survive. The latch sits here, not higher in the stack, because
	// every durability path (CPU flush, DDIO write-back, eADR instant
	// persist) funnels into this device.
	powerOff atomic.Bool
	powerCut atomic.Uint64

	// WriteStats records every write transaction that reaches the device,
	// for the pattern-dependent bandwidth model and Fig 12.
	WriteStats sim.AccessStats

	metrics struct {
		mu             sync.Mutex
		bytesWritten   int64
		bytesPersisted int64
		linesPersisted int64
	}

	// Telemetry mirrors of the counters above; nil (no-op) until
	// AttachTelemetry is called.
	telWriteBytes   *telemetry.Counter
	telWriteTxns    *telemetry.Counter
	telPersistBytes *telemetry.Counter
	telPersistLines *telemetry.Counter

	// Crash / fault-injection telemetry.
	telCrashes       *telemetry.Counter
	telCrashRolled   *telemetry.Counter
	telCrashSurvived *telemetry.Counter
	telCrashTorn     *telemetry.Counter
}

// AttachTelemetry mirrors the device's write/persist counters into the
// registry under the pmem.* namespace. Passing a nil registry detaches.
func (d *Device) AttachTelemetry(r *telemetry.Registry) {
	d.telWriteBytes = r.Counter("pmem.write_bytes")
	d.telWriteTxns = r.Counter("pmem.write_txns")
	d.telPersistBytes = r.Counter("pmem.persist_bytes")
	d.telPersistLines = r.Counter("pmem.persist_lines")
	d.telCrashes = r.Counter("pmem.crashes")
	d.telCrashRolled = r.Counter("pmem.crash_lines_rolled_back")
	d.telCrashSurvived = r.Counter("pmem.crash_lines_survived")
	d.telCrashTorn = r.Counter("pmem.crash_words_torn")
}

// dirtyLine is one overlay entry: a line written since it last became
// durable, and the sequence number of the most recent write that touched
// it. The line's last durable bytes sit at the same position of the
// shard's old-image arena.
type dirtyLine struct {
	addr uint64
	seq  uint64
}

type shard struct {
	mu    sync.Mutex
	lines []dirtyLine // slab of this shard's dirty lines, in no order
	old   []byte      // old images: lines[i]'s at old[i*line:(i+1)*line]
	hi    uint64      // end of the highest line ever dirtied here
}

// slabs carries a released device's overlay capacity to the next device.
type slabs [shardCount]struct {
	lines []dirtyLine
	old   []byte
}

// Media, line-index and slab arrays of released devices, reused by New.
var (
	mediaPool arena.Pool[byte]
	slotPool  arena.Pool[int32]
	slabPool  sync.Pool // *slabs
)

// New returns a PM device of the given size, zero-filled and fully durable.
func New(params *sim.Params, size int64) *Device {
	if size <= 0 {
		panic("pmem: device size must be positive")
	}
	line := uint64(params.LineSize())
	d := &Device{
		params: params,
		data:   mediaPool.Get(int(size)),
		slot:   slotPool.Get(int((uint64(size) + line - 1) / line)),
		line:   line,
	}
	if s, ok := slabPool.Get().(*slabs); ok {
		for i := range s {
			d.shards[i].lines, d.shards[i].old = s[i].lines, s[i].old
		}
	}
	return d
}

// Release hands the device's media, line index and emptied slabs back for
// reuse by a later New. Only the prefix that was ever written is cleared,
// so the next device still starts all zero. The device must be dead:
// afterwards every access panics instead of reaching another device's
// media.
func (d *Device) Release() {
	if d.data == nil {
		return
	}
	var hi uint64
	s := new(slabs)
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		d.truncate(sh)
		hi = max(hi, sh.hi)
		s[i].lines, s[i].old = sh.lines, sh.old
		sh.lines, sh.old = nil, nil
		sh.mu.Unlock()
	}
	slabPool.Put(s)
	mediaPool.Put(d.data, int(hi))
	slotPool.Put(d.slot, 0)
	d.data, d.slot = nil, nil
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return int64(len(d.data)) }

// LineSize returns the persistence tracking granularity.
func (d *Device) LineSize() int { return int(d.line) }

func (d *Device) shardFor(lineAddr uint64) *shard {
	return &d.shards[(lineAddr/d.line)%shardCount]
}

// entry returns the slab index of line la's overlay entry; ok is false when
// the line is durable. Callers hold la's shard lock.
func (d *Device) entry(la uint64) (i int, ok bool) {
	s := d.slot[la/d.line]
	return int(s) - 1, s != 0
}

// oldImage is the durable image saved for slab entry i.
func (d *Device) oldImage(sh *shard, i int) []byte {
	return sh.old[uint64(i)*d.line : uint64(i+1)*d.line]
}

// markDirty records a write with sequence seq to line la, saving the
// line's durable bytes if it was clean. Callers hold la's shard lock.
func (d *Device) markDirty(sh *shard, la, seq uint64) {
	if i, ok := d.entry(la); ok {
		if e := &sh.lines[i]; seq > e.seq {
			e.seq = seq
		}
		return
	}
	sh.lines = append(sh.lines, dirtyLine{addr: la, seq: seq})
	sh.old = append(sh.old, d.data[la:la+d.line]...)
	d.slot[la/d.line] = int32(len(sh.lines))
	sh.hi = max(sh.hi, la+d.line)
}

// drop discards slab entry i, moving the last entry into its place.
// Callers hold the shard lock.
func (d *Device) drop(sh *shard, i int) {
	last := len(sh.lines) - 1
	d.slot[sh.lines[i].addr/d.line] = 0
	if i != last {
		sh.lines[i] = sh.lines[last]
		copy(d.oldImage(sh, i), d.oldImage(sh, last))
		d.slot[sh.lines[i].addr/d.line] = int32(i + 1)
	}
	sh.lines = sh.lines[:last]
	sh.old = sh.old[:uint64(last)*d.line]
}

// truncate empties a shard's overlay, keeping the slab's capacity. Callers
// hold the shard lock.
func (d *Device) truncate(sh *shard) {
	for _, e := range sh.lines {
		d.slot[e.addr/d.line] = 0
	}
	sh.lines = sh.lines[:0]
	sh.old = sh.old[:0]
}

func (d *Device) check(addr uint64, n int) {
	if n < 0 || addr+uint64(n) > uint64(len(d.data)) {
		panic(fmt.Sprintf("pmem: access out of range: addr=%#x n=%d size=%d", addr, n, len(d.data)))
	}
}

// Read copies the current contents at addr into p. Reads always observe the
// most recent write, durable or not (caches are coherent for readers).
func (d *Device) Read(addr uint64, p []byte) {
	d.check(addr, len(p))
	copy(p, d.data[addr:])
}

// Write stores p at addr. The touched lines become volatile (dirty) until
// persisted; their previous durable contents are preserved for crash
// rollback. It returns the set of line addresses dirtied so callers (GPU
// threads, CPU threads) can track what a subsequent fence must persist.
//
// Each line's rollback snapshot and payload update happen atomically under
// that line's shard lock — a line is a coherence unit, and taking the
// snapshot concurrently with another writer's store to the same line could
// leak never-persisted bytes into the "durable" image.
func (d *Device) Write(addr uint64, p []byte) []uint64 {
	return d.WriteSeq(addr, p, d.writeSeq.Add(1))
}

// WriteSeq is Write with a caller-supplied sequence number. The parallel
// execution engine assigns each write a canonical sequence derived from its
// position in the program (not from scheduling order), so the dirty-line
// ordering that fault models observe is identical no matter how many worker
// goroutines executed the run. When concurrent writers touch the same line,
// the line keeps the maximum sequence — also schedule-independent.
func (d *Device) WriteSeq(addr uint64, p []byte, seq uint64) []uint64 {
	return d.WriteSeqInto(nil, addr, p, seq)
}

// WriteSeqInto is WriteSeq appending the dirtied line addresses to dst,
// letting hot-path callers (the GPU store path) reuse one scratch slice
// instead of allocating per store. The returned slice may share dst's
// backing array.
func (d *Device) WriteSeqInto(dst []uint64, addr uint64, p []byte, seq uint64) []uint64 {
	d.check(addr, len(p))
	if len(p) == 0 {
		return dst
	}
	d.noteSeq(seq)
	first := addr / d.line * d.line
	last := (addr + uint64(len(p)) - 1) / d.line * d.line
	lines := dst
	for la := first; la <= last; la += d.line {
		// Intersect the payload with this line.
		start, end := la, la+d.line
		if start < addr {
			start = addr
		}
		if end > addr+uint64(len(p)) {
			end = addr + uint64(len(p))
		}
		sh := d.shardFor(la)
		sh.mu.Lock()
		d.markDirty(sh, la, seq)
		copy(d.data[start:end], p[start-addr:end-addr])
		sh.mu.Unlock()
		lines = append(lines, la)
	}
	d.metrics.mu.Lock()
	d.metrics.bytesWritten += int64(len(p))
	d.metrics.mu.Unlock()
	d.telWriteBytes.Add(int64(len(p)))
	d.telWriteTxns.Inc()
	return lines
}

// noteSeq raises the device's sequence high-water mark.
func (d *Device) noteSeq(seq uint64) {
	for {
		cur := d.maxSeq.Load()
		if seq <= cur || d.maxSeq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// WriteDurable stores p at addr and marks the touched lines durable
// immediately (used for ADR-bypass paths such as eADR-drained state and
// test setup).
func (d *Device) WriteDurable(addr uint64, p []byte) {
	lines := d.Write(addr, p)
	d.PersistLines(lines)
}

// SetPowerFailed latches (or clears) the power-failure instant. Latching
// records the current write sequence so the next CrashWith can tell
// pre-failure writes (fair game for fault models) from post-failure ones
// (unconditionally rolled back).
func (d *Device) SetPowerFailed(v bool) {
	if v {
		d.powerCut.Store(d.maxSeq.Load())
	}
	d.powerOff.Store(v)
}

// SetPowerFailedAt latches the power failure at an explicit sequence cut:
// writes with seq > cut are treated as post-failure and unconditionally roll
// back at the next crash. The parallel engine uses this to pin the failure
// instant to a canonical sequence number instead of "whatever the device had
// seen when some racing thread noticed the abort".
func (d *Device) SetPowerFailedAt(cut uint64) {
	d.powerCut.Store(cut)
	d.powerOff.Store(true)
}

// PowerFailed reports whether the power-failure latch is set.
func (d *Device) PowerFailed() bool { return d.powerOff.Load() }

// PersistLine makes one line durable: its overlay entry (if any) is
// discarded so a crash can no longer roll it back. After a power failure
// (SetPowerFailed) it is a no-op until the crash completes.
func (d *Device) PersistLine(lineAddr uint64) {
	if d.powerOff.Load() {
		return
	}
	la := lineAddr / d.line * d.line
	sh := d.shardFor(la)
	sh.mu.Lock()
	i, dirty := d.entry(la)
	if dirty {
		d.drop(sh, i)
	}
	sh.mu.Unlock()
	if dirty {
		d.metrics.mu.Lock()
		d.metrics.bytesPersisted += int64(d.line)
		d.metrics.linesPersisted++
		d.metrics.mu.Unlock()
		d.telPersistBytes.Add(int64(d.line))
		d.telPersistLines.Inc()
	}
}

// PersistLineBefore persists one line only if its most recent write is not
// newer than seq. The LLC drain uses it when replaying buffered flush events
// in canonical order: a fence must not make writes that canonically follow
// it durable, and since the simulator keeps only the current line contents,
// a line re-dirtied after the fence instant simply stays dirty.
//
// Under a power-failure latch the cut is honored rather than the persist
// being dropped outright: buffered traffic sequenced before the failure
// instant still reaches the persistence domain, while flushes sequenced
// after it died with the power.
func (d *Device) PersistLineBefore(lineAddr, seq uint64) {
	if d.powerOff.Load() && seq > d.powerCut.Load() {
		return
	}
	la := lineAddr / d.line * d.line
	sh := d.shardFor(la)
	sh.mu.Lock()
	i, dirty := d.entry(la)
	if dirty && sh.lines[i].seq <= seq {
		d.drop(sh, i)
	} else {
		dirty = false
	}
	sh.mu.Unlock()
	if dirty {
		d.metrics.mu.Lock()
		d.metrics.bytesPersisted += int64(d.line)
		d.metrics.linesPersisted++
		d.metrics.mu.Unlock()
		d.telPersistBytes.Add(int64(d.line))
		d.telPersistLines.Inc()
	}
}

// PersistLines persists each line address in lines.
func (d *Device) PersistLines(lines []uint64) {
	for _, la := range lines {
		d.PersistLine(la)
	}
}

// PersistRange persists every line overlapping [addr, addr+n).
func (d *Device) PersistRange(addr uint64, n int) {
	if n <= 0 {
		return
	}
	d.check(addr, n)
	first := addr / d.line * d.line
	last := (addr + uint64(n) - 1) / d.line * d.line
	for la := first; la <= last; la += d.line {
		d.PersistLine(la)
	}
}

// PersistAll drains every dirty line (an eADR power-fail flush).
func (d *Device) PersistAll() {
	if d.powerOff.Load() {
		return
	}
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		n := len(sh.lines)
		d.truncate(sh)
		sh.mu.Unlock()
		if n > 0 {
			d.metrics.mu.Lock()
			d.metrics.bytesPersisted += int64(n) * int64(d.line)
			d.metrics.linesPersisted += int64(n)
			d.metrics.mu.Unlock()
			d.telPersistBytes.Add(int64(n) * int64(d.line))
			d.telPersistLines.Add(int64(n))
		}
	}
}

// Crash simulates a friendly power failure: every line that was written but
// never persisted rolls back to its last durable contents (the Clean fault
// model).
func (d *Device) Crash() {
	d.CrashWith(nil, 0)
}

// CrashWith simulates a power failure under a fault model: model decides,
// per dirty line (and per 8-byte word within it), whether the unpersisted
// write survives or rolls back. A nil model behaves like Clean. seed makes
// the model's randomness deterministic and replayable. The device is fully
// durable afterwards.
func (d *Device) CrashWith(model FaultModel, seed uint64) CrashStats {
	stats := CrashStats{Model: "clean"}
	if model != nil {
		stats.Model = model.Name()
	}
	// Writes issued after the power-failure instant never reached the
	// device; they roll back no matter what the fault model says.
	cut, cutActive := uint64(0), false
	if d.powerOff.Load() {
		cut, cutActive = d.powerCut.Load(), true
	}
	d.powerOff.Store(false)
	if _, clean := model.(Clean); model == nil || clean {
		for i := range d.shards {
			sh := &d.shards[i]
			sh.mu.Lock()
			for i, e := range sh.lines {
				copy(d.data[e.addr:e.addr+d.line], d.oldImage(sh, i))
			}
			stats.DirtyLines += len(sh.lines)
			d.truncate(sh)
			sh.mu.Unlock()
		}
		stats.LinesRolledBack = stats.DirtyLines
		d.noteCrash(stats)
		return stats
	}

	// Collect the dirty set, order it by last write, and let the model
	// assign fates. Writers racing with a crash are inherently unordered;
	// the per-shard locks below make each line's resolution atomic.
	type dirtyRef struct {
		line DirtyLine
		sh   *shard
	}
	var refs []dirtyRef
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		for i := 0; i < len(sh.lines); {
			e := sh.lines[i]
			if cutActive && e.seq > cut {
				// Post-failure write: force rollback now. drop moves
				// the last entry into slot i, so i is not advanced.
				copy(d.data[e.addr:e.addr+d.line], d.oldImage(sh, i))
				d.drop(sh, i)
				stats.DirtyLines++
				stats.LinesRolledBack++
				continue
			}
			refs = append(refs, dirtyRef{line: DirtyLine{Addr: e.addr, Seq: e.seq}, sh: sh})
			i++
		}
		sh.mu.Unlock()
	}
	// Order by sequence, tie-broken by address: canonical sequences are
	// unique per write, but a multi-line write shares one sequence across
	// its lines, and the address tie-break keeps the fault-model input
	// deterministic in that case too.
	slices.SortFunc(refs, func(a, b dirtyRef) int {
		if c := cmp.Compare(a.line.Seq, b.line.Seq); c != 0 {
			return c
		}
		return cmp.Compare(a.line.Addr, b.line.Addr)
	})
	lines := make([]DirtyLine, len(refs))
	for i, r := range refs {
		lines[i] = r.line
	}
	words := int(d.line / 8)
	fates := model.Plan(sim.NewRNG(seed), lines, words)
	stats.DirtyLines += len(refs)

	full := fullMask(words)
	for i, r := range refs {
		la := r.line.Addr
		r.sh.mu.Lock()
		j, ok := d.entry(la)
		if !ok {
			r.sh.mu.Unlock()
			continue
		}
		old := d.oldImage(r.sh, j)
		mask := fates[i].SurviveMask & full
		switch mask {
		case 0:
			copy(d.data[la:la+d.line], old)
			stats.LinesRolledBack++
		case full:
			stats.LinesSurvived++
		default:
			for w := 0; w < words; w++ {
				if mask&(uint64(1)<<w) == 0 {
					off := la + uint64(w)*8
					copy(d.data[off:off+8], old[uint64(w)*8:uint64(w)*8+8])
				} else {
					stats.WordsTorn++
				}
			}
		}
		d.drop(r.sh, j)
		r.sh.mu.Unlock()
	}
	d.noteCrash(stats)
	return stats
}

// noteCrash bumps the crash telemetry counters.
func (d *Device) noteCrash(st CrashStats) {
	d.telCrashes.Inc()
	d.telCrashRolled.Add(int64(st.LinesRolledBack))
	d.telCrashSurvived.Add(int64(st.LinesSurvived))
	d.telCrashTorn.Add(int64(st.WordsTorn))
}

// Persisted reports whether the whole range [addr, addr+n) is durable
// (no dirty lines overlap it).
func (d *Device) Persisted(addr uint64, n int) bool {
	if n <= 0 {
		return true
	}
	d.check(addr, n)
	first := addr / d.line * d.line
	last := (addr + uint64(n) - 1) / d.line * d.line
	for la := first; la <= last; la += d.line {
		sh := d.shardFor(la)
		sh.mu.Lock()
		_, dirty := d.entry(la)
		sh.mu.Unlock()
		if dirty {
			return false
		}
	}
	return true
}

// DirtyLines returns the number of lines currently volatile.
func (d *Device) DirtyLines() int {
	n := 0
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		n += len(sh.lines)
		sh.mu.Unlock()
	}
	return n
}

// SnapshotPersistent reconstructs the durable image of [addr, addr+n): the
// bytes a reader would find after a crash at this instant.
func (d *Device) SnapshotPersistent(addr uint64, n int) []byte {
	d.check(addr, n)
	out := make([]byte, n)
	copy(out, d.data[addr:])
	if n == 0 {
		return out
	}
	first := addr / d.line * d.line
	last := (addr + uint64(n) - 1) / d.line * d.line
	for la := first; la <= last; la += d.line {
		sh := d.shardFor(la)
		sh.mu.Lock()
		i, dirty := d.entry(la)
		if dirty {
			// Intersect the line with [addr, addr+n).
			start, end := la, la+d.line
			if start < addr {
				start = addr
			}
			if end > addr+uint64(n) {
				end = addr + uint64(n)
			}
			copy(out[start-addr:end-addr], d.oldImage(sh, i)[start-la:end-la])
		}
		sh.mu.Unlock()
	}
	return out
}

// BytesWritten returns the total bytes written to the device.
func (d *Device) BytesWritten() int64 {
	d.metrics.mu.Lock()
	defer d.metrics.mu.Unlock()
	return d.metrics.bytesWritten
}

// BytesPersisted returns the total bytes made durable via explicit persists
// (line-granular).
func (d *Device) BytesPersisted() int64 {
	d.metrics.mu.Lock()
	defer d.metrics.mu.Unlock()
	return d.metrics.bytesPersisted
}

// ResetMetrics clears the byte counters and write statistics (device
// contents are untouched).
func (d *Device) ResetMetrics() {
	d.metrics.mu.Lock()
	d.metrics.bytesWritten = 0
	d.metrics.bytesPersisted = 0
	d.metrics.linesPersisted = 0
	d.metrics.mu.Unlock()
	d.WriteStats.Reset()
}
