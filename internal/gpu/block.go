package gpu

import (
	"iter"
	"sync"

	"github.com/gpm-sim/gpm/internal/sim"
)

// threadState is a thread's position in its block's cooperative schedule.
type threadState uint8

const (
	tsNew     threadState = iota // never run; starts inline on the hub or on a runner
	tsReady                      // runnable, queued in canonical order
	tsRunning                    // executing on the hub or its runner
	tsBarrier                    // parked at the block barrier
	tsAtomic                     // parked at an atomic, operands staged for the engine
	tsExited                     // returned or crash-unwound
)

// Block is one resident threadblock: the block-granularity execution unit.
//
// Each block runs on one goroutine, its hub. Threads run as an inner loop
// in ascending thread-ID order between synchronization points. New threads
// execute inline on the hub, so kernels that never synchronize run on the
// hub alone: no coroutines, no channel operations, no locking. A thread
// that parks (barrier, atomic) needs a stack of its own to come back to:
// below a parked inline thread, new threads start on a runner — a pooled
// iter.Pull coroutine — which yields back to the hub when its thread parks
// and is resumed by the hub when that thread's turn comes (see schedule).
//
// At any instant exactly one of the hub and its runners executes, so all
// block-local state (shared memory, SIMT steps, barrier counts, stats) is
// mutex-free; the happens-before edges are the coroutine switches
// themselves and the engine's round mutex.
type Block struct {
	dev      *Device
	eng      *engine
	id       int
	grid     int // number of blocks in the grid
	nthreads int
	kern     func(*Thread)
	warps    []*warp
	threads  []*Thread
	stats    *kernelStats
	shared   []byte

	live    int // threads not yet exited
	arrived int // threads parked at the current barrier generation
	nAtomic int // threads parked at atomics

	// ready is the canonical run queue. It is refilled only at block-local
	// quiescence (when it is empty) in ascending thread-ID order, so FIFO
	// consumption is canonical order.
	ready     []int32
	readyHead int

	idle []*runner     // runners with no thread, reusable by this block
	wake chan struct{} // engine -> block: atomic round committed

	// pmWrites is one flush's PM write pattern: sequentiality restarts at
	// each flush, and flush merges it into stats.
	pmWrites sim.AccessStats

	out *blockOutcome // finish results, read by Launch after the wave joins
	wg  *sync.WaitGroup
}

// runner is a coroutine that executes threads for a block's hub. It runs
// new threads one after another until one parks and stays tied to that
// thread until it exits; it then yields the next thread to the hub and
// waits, idle, for another new thread. Resuming it with none ends it.
type runner struct {
	resume func() (*Thread, bool)
	yield  func(*Thread) bool
	t      *Thread // the new thread to start on the next resume
}

// runnerPool keeps idle runners between launches. A retiring block ends
// those beyond maxIdleRunners (see finish), so no coroutine outlives the
// bound. It is package-wide because a Device has no Close: a per-device
// pool would strand its coroutines when the device is dropped.
var runnerPool struct {
	sync.Mutex
	idle []*runner
}

const maxIdleRunners = 1024

// getRunner returns one of the block's idle runners, restocking them from
// the pool (up to one per live thread, in one lock) or making a new one.
func (b *Block) getRunner() *runner {
	if len(b.idle) == 0 {
		runnerPool.Lock()
		k := max(0, len(runnerPool.idle)-b.live)
		b.idle = append(b.idle, runnerPool.idle[k:]...)
		clear(runnerPool.idle[k:])
		runnerPool.idle = runnerPool.idle[:k]
		runnerPool.Unlock()
	}
	if n := len(b.idle); n > 0 {
		r := b.idle[n-1]
		b.idle = b.idle[:n-1]
		return r
	}
	r := new(runner)
	r.resume, _ = iter.Pull(func(yield func(*Thread) bool) {
		r.yield = yield
		for t := r.t; t != nil; t = r.t {
			b := t.blk
			for t != nil && t.state == tsNew {
				b.exec(t, r)
				t = b.next()
			}
			r.t = nil
			b.idle = append(b.idle, r)
			yield(t)
		}
	})
	return r
}

// ID returns the block index within the grid.
func (b *Block) ID() int { return b.id }

// Threads returns the number of threads in the block (blockDim).
func (b *Block) Threads() int { return b.nthreads }

// Grid returns the number of blocks in the grid (gridDim).
func (b *Block) Grid() int { return b.grid }

// Shared returns the block's shared-memory arena, allocating it at the
// requested size on first use (CUDA __shared__ analog). All threads in the
// block see the same arena; callers synchronize with SyncBlock as they
// would on hardware. Threads of a block never run concurrently, so the
// arena needs no lock.
func (b *Block) Shared(n int) []byte {
	if len(b.shared) < n {
		grown := make([]byte, n)
		copy(grown, b.shared)
		b.shared = grown
	}
	return b.shared[:n]
}

// ---- Cooperative scheduler ----

// popReady dequeues the next runnable thread in canonical order.
func (b *Block) popReady() *Thread {
	if b.readyHead >= len(b.ready) {
		return nil
	}
	t := b.threads[b.ready[b.readyHead]]
	b.readyHead++
	return t
}

// requeue restarts the empty run queue with the threads parked in state s,
// in ascending thread ID so FIFO consumption stays canonical.
func (b *Block) requeue(s threadState) {
	b.ready, b.readyHead = b.ready[:0], 0
	for _, t := range b.threads {
		if t.state == s {
			t.state = tsReady
			b.ready = append(b.ready, int32(t.id))
		}
	}
}

// next returns the lowest-ID runnable thread, resolving block-local
// quiescence on the calling stack. A barrier every live thread has reached
// releases here: the warps' SIMT steps flush, aligning warp clocks to the
// block maximum. When every live thread is parked at an atomic (or behind a
// barrier an atomic is holding up) the block reports quiescent to the
// engine and sleeps until the round commits (results are staged in each
// thread's aOld/aLines). Returns nil once every thread has exited.
func (b *Block) next() *Thread {
	for {
		if t := b.popReady(); t != nil {
			return t
		}
		if b.live == 0 {
			return nil
		}
		if b.arrived == b.live {
			b.flush(true)
			b.requeue(tsBarrier)
			b.arrived = 0
			continue
		}
		if b.nAtomic == 0 {
			panic("gpu: block quiescent with no pending atomics") // scheduler invariant
		}
		b.eng.blockQuiescent(b)
		<-b.wake
		b.requeue(tsAtomic)
		b.nAtomic = 0
	}
}

// runScheduler is the hub: it runs the block to completion on the calling
// goroutine, which must carry no kernel frames, then retires it.
func (b *Block) runScheduler() {
	b.schedule(nil, nil)
	b.finish()
}

// schedule runs threads in canonical order until self — the parked thread
// whose kernel frames the hub carries, nil at top level — is next, or at
// top level until every thread has exited. t, if non-nil, is already
// dequeued. New threads run inline at top level and on a runner below
// self; a parked thread resumes on the runner it parked in.
func (b *Block) schedule(self, t *Thread) {
	for {
		if t == nil {
			t = b.next()
		}
		if t == self {
			return
		}
		if self == nil && t.state == tsNew {
			b.exec(t, nil)
			t = nil
			continue
		}
		r := t.runner
		if r == nil {
			r = b.getRunner()
			r.t = t
		}
		t, _ = r.resume()
	}
}

// exec runs one new thread's kernel function on the hub (r nil) or runner
// r. If the thread parks, exec returns once it resumes and completes.
func (b *Block) exec(t *Thread, r *runner) {
	t.state = tsRunning
	t.runner = r
	defer func() {
		t.state = tsExited
		t.runner = nil
		b.live--
		if p := recover(); p != nil && p != ErrCrashed {
			panic(p)
		}
	}()
	b.kern(t)
}

// park suspends t — already marked tsBarrier or tsAtomic by the caller —
// and returns once t is next in canonical order. A thread on a runner
// yields the next thread to the hub; a thread inline on the hub schedules
// the others from there.
func (b *Block) park(t *Thread) {
	if u := b.next(); u != t {
		if r := t.runner; r != nil {
			r.yield(u)
		} else {
			b.schedule(t, u)
		}
	}
	t.state = tsRunning
}

// finish retires the block: flush the remaining SIMT steps, harvest the results
// Launch reads after the join, pool the runners, recycle the Block, and free
// the window slot. Runs on the hub. The harvest must complete before the
// pool Put — a concurrent spawner may reuse the Block the moment it is
// pooled — and the Put must precede blockDone so a spawner unblocked by the
// freed window slot finds the Block available. Runners beyond the idle
// pool's bound are ended.
func (b *Block) finish() {
	out := b.out
	out.crit = b.flush(false)
	for _, t := range b.threads {
		if t.opIdx > out.maxLocal {
			out.maxLocal = t.opIdx
		}
		if t.lastExec > out.maxExec {
			out.maxExec = t.lastExec
		}
		if t.abortedAt != 0 && (out.minAbort == 0 || t.abortedAt < out.minAbort) {
			out.minAbort = t.abortedAt
		}
	}
	runnerPool.Lock()
	keep := min(len(b.idle), maxIdleRunners-len(runnerPool.idle))
	runnerPool.idle = append(runnerPool.idle, b.idle[:keep]...)
	runnerPool.Unlock()
	for _, r := range b.idle[keep:] {
		r.resume()
	}
	clear(b.idle)
	b.idle = b.idle[:0]
	eng, wg, dev := b.eng, b.wg, b.dev
	dev.blockPool.Put(b)
	eng.blockDone()
	wg.Done()
}

// flush advances every warp's clock through the SIMT steps its lanes have
// folded since the last flush and returns the block's critical path. At a
// block-wide barrier (align) it also aligns all warp clocks to the block
// maximum.
func (b *Block) flush(align bool) sim.Duration {
	b.pmWrites.Reset()
	var maxClock sim.Duration
	for _, w := range b.warps {
		w.drain(&b.pmWrites)
		maxClock = max(maxClock, w.clock)
	}
	for _, t := range b.threads {
		t.nstep = 0
	}
	if align {
		for _, w := range b.warps {
			w.clock = maxClock
		}
	}
	b.stats.pmWrites.Merge(&b.pmWrites)
	return maxClock
}
