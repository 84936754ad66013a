package gpu

import (
	"encoding/binary"
	"sync"
)

// engine coordinates one kernel launch across block-granularity execution
// units while keeping every simulated outcome schedule-independent.
//
// Execution units are threadblocks, not threads: each block runs its threads
// on one hub goroutine (switching to a coroutine per parked thread) as an
// inner loop in canonical thread-ID order between synchronization points
// (see block.go). The engine therefore only has to arbitrate *between*
// blocks, and its mutex is taken once per block state transition (spawn,
// quiescence, retire) instead of once per thread park — the change that
// makes host parallelism pay.
//
// The determinism argument has three parts:
//
//  1. Between synchronization points kernel code is race-free — the repo
//     runs under -race — so each thread's execution segment depends only on
//     values committed by earlier rounds, never on the order segments ran
//     in. Within a block the order is in fact fixed (ascending thread ID);
//     across blocks it is whatever the host scheduler does, which by the
//     race-freedom contract cannot be observed.
//
//  2. Atomics do not execute inline. A thread reaching an atomic parks
//     inside its block; when every live thread of a block is parked the
//     block reports quiescent, and when every spawned block of the wave is
//     quiescent or retired (activeBlocks == 0), the engine commits all
//     pending atomics in canonical (block ID, thread ID) order and wakes
//     the blocks. The quiescent state — who is parked where, with which
//     operands — is the unique fixed point of "run every thread to its
//     next synchronization point", independent of scheduling and of the
//     spawn window.
//
//  3. Rounds never commit while the wave is partially spawned. The spawn
//     window bounds how many blocks run while the wave is still being
//     spawned; a block parked at quiescence frees its slot, so the spawner
//     always makes progress, and maybeTrigger commits a round only once
//     every block of the wave is spawned and none is running. Every round
//     therefore sees the whole wave's threads, so the window size affects
//     wall-clock time only. After a round every woken block of the wave
//     resumes at once, whatever the window.
//
// Every thread additionally derives a canonical operation index from its
// position in the program (see Thread.checkCrash), which feeds the
// fault-injection abort check, the canonical PM write sequence numbers,
// and the power-failure cut — all schedule-independent.
type engine struct {
	dev *Device

	// Launch-wide canonical constants, captured while the host is serial.
	opBase         int64  // device op-index base for this launch
	gridThreads    int64  // total threads in the grid
	seqBase        uint64 // PM sequence window base for this launch
	abortEnabled   bool
	abortCheck     func(op int64) bool
	alreadyAborted bool // a previous launch aborted: this launch runs no thread

	mu        sync.Mutex
	spawnCond *sync.Cond

	activeBlocks int // spawned blocks neither quiescent nor retired (window occupancy)
	unspawned    int // blocks of the current wave not yet spawned

	// waiting holds blocks parked at quiescence with pending atomics. They
	// arrive roughly in spawn (block ID) order, so the round sort is an
	// insertion sort over a near-sorted list.
	waiting []*Block
}

func newEngine(d *Device, gridThreads int) *engine {
	e := &engine{
		dev:            d,
		opBase:         d.opBase,
		gridThreads:    int64(gridThreads),
		seqBase:        d.Space.SeqMark(),
		abortEnabled:   d.abortEnabled.Load(),
		abortCheck:     d.abortCheck,
		alreadyAborted: d.aborted.Load(),
	}
	e.spawnCond = sync.NewCond(&e.mu)
	return e
}

// beginWave registers a new wave's block count.
func (e *engine) beginWave(blocks int) {
	e.mu.Lock()
	e.unspawned = blocks
	e.mu.Unlock()
}

// awaitSpawnSlot blocks until fewer than window blocks are running, then
// registers the wave's next block as active. The window only paces the
// spawn: the blocks a round wakes all count as running at once.
func (e *engine) awaitSpawnSlot(window int) {
	e.mu.Lock()
	for e.activeBlocks >= window {
		e.spawnCond.Wait()
	}
	e.unspawned--
	e.activeBlocks++
	e.mu.Unlock()
}

// blockDone retires a finished block, freeing a window slot. The retiring
// block may have been the last active one, unblocking a pending round.
func (e *engine) blockDone() {
	e.mu.Lock()
	e.activeBlocks--
	e.spawnCond.Signal()
	e.maybeTrigger()
	e.mu.Unlock()
}

// blockQuiescent records that every live thread of b is parked and at least
// one is waiting on an atomic, freeing b's window slot. The caller (b's hub
// or the runner executing for it) must block on b.wake immediately after;
// the engine owns b's parked thread records until it sends the wake token.
func (e *engine) blockQuiescent(b *Block) {
	e.mu.Lock()
	e.waiting = append(e.waiting, b)
	e.activeBlocks--
	e.spawnCond.Signal()
	e.maybeTrigger()
	e.mu.Unlock()
}

// maybeTrigger commits the pending atomic round once the whole wave is
// spawned and no block is running, never earlier: a round taken mid-spawn
// would miss the unspawned blocks' atomics (determinism argument 3). Called
// with e.mu held.
func (e *engine) maybeTrigger() {
	if e.activeBlocks == 0 && e.unspawned == 0 && len(e.waiting) > 0 {
		e.runRound()
	}
}

// runRound commits every pending atomic in canonical (block, thread) order
// and wakes the waiting blocks. All other blocks of the wave have retired,
// so the reads and writes below are the only accesses in flight. Called
// with e.mu held. The happens-before edges are the mutex, which publishes
// the operand fields each block wrote before parking, and the wake send,
// which publishes the results back; inside a block they are coroutine
// switches.
func (e *engine) runRound() {
	// Blocks quiesce roughly in spawn order, so the list is near-sorted:
	// insertion sort is O(n) here and skips sort.Slice's closure overhead.
	sortBlocksByID(e.waiting)
	sp := e.dev.Space
	for _, b := range e.waiting {
		for _, t := range b.threads {
			if t.state != tsAtomic {
				continue
			}
			t.aOld = sp.ReadU32(t.aAddr)
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], t.aFn(t.aOld))
			t.aLines = sp.WriteGPUSeqInto(t.aLines[:0], t.aAddr, buf[:], t.aSeq)
		}
	}
	e.activeBlocks += len(e.waiting)
	for _, b := range e.waiting {
		b.wake <- struct{}{} // buffered; the block is (or will be) receiving
	}
	e.waiting = e.waiting[:0]
}

// sortBlocksByID sorts a near-sorted block list by block ID (insertion
// sort: linear on the already-ordered common case).
func sortBlocksByID(bs []*Block) {
	for i := 1; i < len(bs); i++ {
		b := bs[i]
		j := i - 1
		for j >= 0 && bs[j].id > b.id {
			bs[j+1] = bs[j]
			j--
		}
		bs[j+1] = b
	}
}
