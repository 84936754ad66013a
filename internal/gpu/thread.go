package gpu

import (
	"encoding/binary"
	"math"
	"math/bits"
	"unsafe"

	"github.com/gpm-sim/gpm/internal/memsys"
	"github.com/gpm-sim/gpm/internal/sim"
)

// Thread is the per-thread execution context handed to a kernel function.
// It provides CUDA-thread semantics: identity within the execution
// hierarchy, typed loads and stores into the unified address space, scoped
// fences, a block barrier, and atomics.
//
// Threads of a block never execute concurrently (see Block): a thread runs
// on its block's hub or a runner until it parks at a synchronization point,
// so all per-thread and block-local state below is unlocked.
type Thread struct {
	blk  *Block
	warp *warp
	id   int // thread index within the block
	lane int // lane within the warp

	dirty []uint64 // virtual PM lines written since the last system fence
	nstep int      // operations since the last flush: the next one's SIMT step

	// Cooperative-scheduling state (owned by the block's executing hub or
	// runner; the engine reads the atomic operand fields under its round
	// mutex while the block is quiescent).
	state  threadState
	runner *runner // the runner executing this thread; nil on the hub

	// Pending-atomic operands and results, staged across the park.
	aAddr  uint64
	aSeq   uint64
	aFn    func(uint32) uint32
	aOld   uint32
	aLines []uint64

	lineScratch []uint64            // reused dirty-line buffer for stores
	seenLines   map[uint64]struct{} // reused dedupe scratch
	rows        [2][]float32        // LoadF32s row buffers

	// Canonical-index state (see engine.go). opIdx counts this thread's
	// operations; each gets the launch-wide canonical index
	// opBase + (opIdx-1)*gridThreads + globalID + 1 and the PM sequence
	// seqBase + (index - opBase). lastExec is the highest index executed,
	// abortedAt the index at which the fault injector unwound the thread
	// (0 = none). Harvested by Block.finish.
	opIdx     int64
	lastExec  int64
	abortedAt int64
	curSeq    uint64
}

// ---- Identity ----

// ID returns the thread index within its block (threadIdx).
func (t *Thread) ID() int { return t.id }

// Lane returns the lane index within the warp.
func (t *Thread) Lane() int { return t.lane }

// WarpID returns the warp index within the block.
func (t *Thread) WarpID() int { return t.id / t.blk.dev.Params.WarpSize }

// Block returns the enclosing threadblock.
func (t *Thread) Block() *Block { return t.blk }

// GlobalID returns blockIdx*blockDim + threadIdx.
func (t *Thread) GlobalID() int { return t.blk.id*t.blk.nthreads + t.id }

// GridThreads returns the total number of threads in the grid.
func (t *Thread) GridThreads() int { return t.blk.grid * t.blk.nthreads }

// Device returns the executing device.
func (t *Thread) Device() *Device { return t.blk.dev }

// Space returns the unified memory space.
func (t *Thread) Space() *memsys.Space { return t.blk.dev.Space }

// ---- SIMT step helpers ----

// step returns the SIMT step this thread's next operation folds into: a
// lane's i-th operation since the last flush belongs to its warp's i-th step.
func (t *Thread) step() *simtStep {
	w := t.warp
	if t.nstep == len(w.steps) {
		w.grow()
	}
	t.nstep++
	return &w.steps[t.nstep-1]
}

// access folds one memory access of this thread into its next SIMT step.
// A host DRAM or PM access goes through the coalescer. An HBM (or
// invalid-space) access has no transaction counter: it adds its bytes at
// its kind's latency.
func (t *Thread) access(kind opKind, addr uint64, size int) {
	d, st, s := t.blk.dev, t.blk.stats, t.step()
	if space := d.Space.KindOf(addr); space == memsys.KindPM || space == memsys.KindDRAM {
		s.coalesce(d.Params, st, kind, space, addr, size)
		return
	}
	st.hbmBytes += int64(size)
	switch kind {
	case opStore:
		s.wait(d.Params.GPUIssueCost)
	case opLoad:
		s.wait(d.Params.HBMLatency)
	default:
		s.wait(4 * d.Params.HBMLatency)
	}
}

// checkCrash advances this thread's canonical operation index and runs the
// fault-injection check against it. With the monotone checks the campaign
// uses (op >= K), every thread executes exactly its operations with index
// below K and unwinds at its first index at or past K — the same canonical
// crash instant for every spawn window. A launch started after the check
// fired runs no thread (see Device.Launch).
func (t *Thread) checkCrash() {
	eng := t.blk.eng
	t.opIdx++
	idx := eng.opBase + (t.opIdx-1)*eng.gridThreads + int64(t.GlobalID()) + 1
	t.curSeq = eng.seqBase + uint64(idx-eng.opBase)
	if eng.abortEnabled && eng.abortCheck(idx) {
		t.abortedAt = idx
		t.blk.dev.aborted.Store(true)
		panic(ErrCrashed)
	}
	t.lastExec = idx
}

func (t *Thread) trackDirty(lines []uint64) {
	if len(lines) == 0 {
		return
	}
	t.dirty = append(t.dirty, lines...)
	if len(t.dirty) > 1<<16 {
		t.dirty = t.dedupeLines(t.dirty)
	}
}

// dedupeLines removes duplicates in place, preserving first-occurrence
// order (the order fault models observe). The scratch map is reused across
// calls so the fence path allocates nothing in steady state.
func (t *Thread) dedupeLines(lines []uint64) []uint64 {
	if t.seenLines == nil {
		t.seenLines = make(map[uint64]struct{}, len(lines))
	} else {
		clear(t.seenLines)
	}
	out := lines[:0]
	for _, la := range lines {
		if _, ok := t.seenLines[la]; ok {
			continue
		}
		t.seenLines[la] = struct{}{}
		out = append(out, la)
	}
	return out
}

// ---- Raw and typed memory access ----

// StoreBytes writes p at addr.
func (t *Thread) StoreBytes(addr uint64, p []byte) {
	t.checkCrash()
	lines := t.Space().WriteGPUSeqInto(t.lineScratch[:0], addr, p, t.curSeq)
	t.trackDirty(lines)
	t.lineScratch = lines[:0]
	t.access(opStore, addr, len(p))
}

// LoadBytes reads len(p) bytes at addr into p.
func (t *Thread) LoadBytes(addr uint64, p []byte) {
	t.checkCrash()
	t.Space().Read(addr, p)
	t.access(opLoad, addr, len(p))
}

// bigEndianHost: the host's byte order is not the simulated memory's.
var bigEndianHost = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// LoadF32s reads n contiguous little-endian float32s at addr as one wide
// load of 4n bytes (a vectorized row fetch) into row buffer buf (0 or 1),
// so a thread can hold two rows at once. The bytes are copied into the row
// as they are (a big-endian host then swaps each element). The slice stays
// valid until the thread's next LoadF32s into the same buffer; the buffers
// are reused across launches, so the load allocates nothing once they have
// grown to n.
func (t *Thread) LoadF32s(buf int, addr uint64, n int) []float32 {
	if cap(t.rows[buf]) < n {
		t.rows[buf] = make([]float32, n)
	}
	row := t.rows[buf][:n]
	// unsafe: the load lands in the row's own bytes, so no per-element
	// decode pass, which costs far more than the copy, follows it.
	t.LoadBytes(addr, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(row))), 4*n))
	for i := 0; bigEndianHost && i < n; i++ {
		row[i] = math.Float32frombits(bits.ReverseBytes32(math.Float32bits(row[i])))
	}
	return row
}

// StoreU32 writes a little-endian uint32.
func (t *Thread) StoreU32(addr uint64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	t.StoreBytes(addr, b[:])
}

// LoadU32 reads a little-endian uint32.
func (t *Thread) LoadU32(addr uint64) uint32 {
	var b [4]byte
	t.LoadBytes(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// StoreU64 writes a little-endian uint64.
func (t *Thread) StoreU64(addr uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	t.StoreBytes(addr, b[:])
}

// LoadU64 reads a little-endian uint64.
func (t *Thread) LoadU64(addr uint64) uint64 {
	var b [8]byte
	t.LoadBytes(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// StoreF32 writes a float32.
func (t *Thread) StoreF32(addr uint64, v float32) { t.StoreU32(addr, math.Float32bits(v)) }

// LoadF32 reads a float32.
func (t *Thread) LoadF32(addr uint64) float32 { return math.Float32frombits(t.LoadU32(addr)) }

// StoreF64 writes a float64.
func (t *Thread) StoreF64(addr uint64, v float64) { t.StoreU64(addr, math.Float64bits(v)) }

// LoadF64 reads a float64.
func (t *Thread) LoadF64(addr uint64) float64 { return math.Float64frombits(t.LoadU64(addr)) }

// ---- Fences, barrier, compute, serialization ----

// FenceSystem is __threadfence_system(): it waits until this thread's prior
// writes are visible to the whole system. With DDIO disabled the writes
// drain into the ADR persistence domain, so the fence doubles as a persist
// (gpm_persist); with DDIO enabled the fence completes once the writes
// reach the (volatile) LLC, and durability is NOT guaranteed — exactly the
// pitfall GPM's persist_begin/persist_end exists to avoid (§3.1).
func (t *Thread) FenceSystem() {
	t.checkCrash()
	sp, p := t.Space(), t.blk.dev.Params
	lines := t.dedupeLines(t.dirty)
	cost := p.LLCFenceRTT
	if sp.DDIOOff() {
		t.lineScratch = sp.PersistLinesSeqInto(t.lineScratch, lines, t.curSeq)[:0]
		cost = p.PCIeRTT + sim.Duration(len(lines))*p.PMDrainPerLine
	}
	t.dirty = t.dirty[:0]
	t.blk.stats.fences++
	t.step().wait(cost)
}

// FenceDevice is __threadfence(): device-scope ordering only. In this model
// writes are immediately visible, so only the timing cost is recorded.
func (t *Thread) FenceDevice() {
	t.checkCrash()
	t.Compute(40 * sim.Nanosecond)
}

// FenceBlock is __threadfence_block().
func (t *Thread) FenceBlock() {
	t.checkCrash()
	t.Compute(10 * sim.Nanosecond)
}

// SyncBlock is __syncthreads(): all live threads of the block rendezvous.
// The arriving thread parks; the barrier releases block-locally once every
// live thread has arrived (threads parked at atomics count as "on their
// way": the barrier waits through the atomic round).
func (t *Thread) SyncBlock() {
	t.checkCrash()
	b := t.blk
	b.arrived++
	t.state = tsBarrier
	b.park(t)
}

// Compute accounts d of pure computation on this thread.
func (t *Thread) Compute(d sim.Duration) {
	t.step().wait(sim.Duration(float64(d) * t.blk.dev.Params.GPUComputeScale))
}

// Serialize accounts d of simulated time on a named serial software
// resource (such as a lock-protected log partition). Unlike Compute, the
// cost does not parallelize: the kernel cannot finish before the sum of all
// time serialized on any single resource.
func (t *Thread) Serialize(resource string, d sim.Duration) {
	t.blk.stats.addSerial(t.blk.dev.ResourceID(resource), d)
	t.step() // the lane still occupies the step
}

// ---- Host-proxy operations (GPUfs daemon writes) ----

// HostWriteBytes performs a CPU-daemon store on behalf of this GPU thread
// (the GPUfs RPC path): the payload lands in the CPU caches with this
// operation's canonical sequence, so its durability ordering is
// schedule-independent. Timing is accounted separately by the caller
// (Serialize/Compute); the operation takes no SIMT step.
func (t *Thread) HostWriteBytes(addr uint64, p []byte) {
	t.checkCrash()
	t.Space().WriteCPUSeq(addr, p, t.curSeq)
}

// HostPersistRange is the daemon-side fsync analog of HostWriteBytes: it
// flushes the virtual PM range at this operation's canonical sequence.
func (t *Thread) HostPersistRange(addr uint64, n int) {
	t.checkCrash()
	t.Space().PersistRangeSeq(addr, n, t.curSeq)
}

// ---- Atomics ----

// atomicApply32 parks the thread at its block. The read-modify-write
// executes when every runnable thread of the wave has parked or exited, in
// canonical (block, thread) order — so the value each thread observes is
// identical for every spawn window. The timing model is unchanged: the
// operation folds into the lane's SIMT step, exactly as when atomics
// executed inline.
func (t *Thread) atomicApply32(addr uint64, f func(uint32) uint32) (old uint32) {
	t.checkCrash()
	b := t.blk
	t.aAddr, t.aFn, t.aSeq = addr, f, t.curSeq
	t.state = tsAtomic
	b.nAtomic++
	b.park(t)
	t.aFn = nil
	t.trackDirty(t.aLines)
	t.access(opAtomic, addr, 4)
	return t.aOld
}

// AtomicAdd32 atomically adds delta at addr and returns the old value.
func (t *Thread) AtomicAdd32(addr uint64, delta uint32) uint32 {
	return t.atomicApply32(addr, func(v uint32) uint32 { return v + delta })
}

// AtomicMin32 atomically stores min(old, v) and returns the old value.
func (t *Thread) AtomicMin32(addr uint64, v uint32) uint32 {
	return t.atomicApply32(addr, func(old uint32) uint32 {
		if v < old {
			return v
		}
		return old
	})
}

// AtomicMax32 atomically stores max(old, v) and returns the old value.
func (t *Thread) AtomicMax32(addr uint64, v uint32) uint32 {
	return t.atomicApply32(addr, func(old uint32) uint32 {
		if v > old {
			return v
		}
		return old
	})
}

// AtomicExch32 atomically swaps in v and returns the old value.
func (t *Thread) AtomicExch32(addr uint64, v uint32) uint32 {
	return t.atomicApply32(addr, func(uint32) uint32 { return v })
}

// AtomicCAS32 atomically replaces expected with v; it returns the value
// observed (CUDA atomicCAS semantics: success iff the return equals
// expected).
func (t *Thread) AtomicCAS32(addr uint64, expected, v uint32) uint32 {
	return t.atomicApply32(addr, func(old uint32) uint32 {
		if old == expected {
			return v
		}
		return old
	})
}

// AtomicOr32 atomically ORs v at addr and returns the old value.
func (t *Thread) AtomicOr32(addr uint64, v uint32) uint32 {
	return t.atomicApply32(addr, func(old uint32) uint32 { return old | v })
}
