package gpu

import (
	"slices"

	"github.com/gpm-sim/gpm/internal/memsys"
	"github.com/gpm-sim/gpm/internal/sim"
)

// opKind is a memory access's class. Its order is the coalescer's: within a
// step, a PM store transaction issues before a PM atomic one.
type opKind uint8

const (
	opStore opKind = iota
	opLoad
	opAtomic
)

// blkBits is where a transaction key's (kind, space) sits above its block
// number. Only host DRAM and PM accesses form transactions, and their
// addresses stay below 2^50, so any block number fits below it.
const blkBits = 60

// txnKey orders a step's transactions by (kind, space, block).
func txnKey(kind opKind, space memsys.Kind, blk uint64) uint64 {
	return uint64(kind)<<62 | uint64(space)<<blkBits | blk
}

var (
	pmStoreKey  = txnKey(opStore, memsys.KindPM, 0)
	pmAtomicKey = txnKey(opAtomic, memsys.KindPM, 0)
)

// txn is one coalesced transaction: a step's accesses of one kind to one
// CoalesceBytes block of host DRAM or PM, spanning [lo, end).
type txn struct {
	key, lo, end uint64
}

// simtStep is one SIMT step of a warp: the i-th operation of every lane
// since the last flush, folded in as each lane issues it.
type simtStep struct {
	dur  sim.Duration // the step's latency: the max over its operations
	txns []txn        // ascending key order
}

// warp models 32 lanes executing in lockstep with a shared clock.
type warp struct {
	clock sim.Duration
	steps []simtStep // the steps since the last flush; drained ones are reused
	arena []txn      // carves each new step's first transaction slot
}

// grow opens the warp's next step, reusing a drained one's storage. A step
// seen for the first time takes its one-transaction slot from the arena, so
// a deep kernel's first pass does not allocate per step.
func (w *warp) grow() {
	n := len(w.steps)
	if n < cap(w.steps) {
		w.steps = w.steps[:n+1]
	} else {
		w.steps = append(w.steps, simtStep{})
	}
	if s := &w.steps[n]; s.txns == nil {
		if len(w.arena) == 0 {
			w.arena = make([]txn, 256)
		}
		s.txns, w.arena = w.arena[:0:1], w.arena[1:]
	}
}

// drain advances the warp clock through its steps in order and records each
// step's PM write transactions — stores, then atomics, each in ascending
// address order — into pmWrites. The steps are left empty for reuse.
func (w *warp) drain(pmWrites *sim.AccessStats) {
	for i := range w.steps {
		s := &w.steps[i]
		w.clock += s.dur
		for _, t := range s.txns {
			if k := t.key &^ (1<<blkBits - 1); k == pmStoreKey || k == pmAtomicKey {
				pmWrites.Record(t.lo, int(t.end-t.lo))
			}
		}
		s.dur, s.txns = 0, s.txns[:0]
	}
	w.steps = w.steps[:0]
}

// wait raises the step's latency to at least d.
func (s *simtStep) wait(d sim.Duration) { s.dur = max(s.dur, d) }

// coalesce folds one lane's host DRAM or PM access into the step and the
// block's totals st. The access joins the step's transaction for its
// (kind, space, block) or opens one, which counts a transaction and costs
// its kind's latency.
func (s *simtStep) coalesce(p *sim.Params, st *kernelStats, kind opKind, space memsys.Kind, addr uint64, size int) {
	n := int64(size)
	pm, write := space == memsys.KindPM, kind != opLoad
	switch {
	case pm && write:
		st.pmWriteBytes += n
	case pm:
		st.pmReadBytes += n
	case write:
		st.hostWriteBytes += n
	default:
		st.hostReadBytes += n
	}
	if !s.join(txnKey(kind, space, addr/uint64(p.CoalesceBytes)), addr, addr+uint64(size)) {
		return
	}
	switch {
	case pm && write:
		st.pmWriteTxns++
	case pm:
		st.pmReadTxns++
	default:
		st.hostTxns++
	}
	switch {
	case kind == opAtomic:
		s.wait(p.PCIeRTT)
	case kind == opStore:
		s.wait(p.GPUIssueCost)
	case pm:
		s.wait(p.GPULoadStall + p.PMReadLatency)
	default:
		s.wait(p.GPULoadStall)
	}
}

// join adds [lo, end) to the step's transaction with key k, opening it if
// the step has none, and reports whether it opened one. Lanes mostly issue
// ascending addresses, so the scan from the newest key usually stops at once.
func (s *simtStep) join(k, lo, end uint64) bool {
	i := len(s.txns)
	for i > 0 && s.txns[i-1].key > k {
		i--
	}
	if i > 0 && s.txns[i-1].key == k {
		t := &s.txns[i-1]
		t.lo, t.end = min(t.lo, lo), max(t.end, end)
		return false
	}
	s.txns = slices.Insert(s.txns, i, txn{key: k, lo: lo, end: end})
	return true
}
