package gpu

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/gpm-sim/gpm/internal/memsys"
	"github.com/gpm-sim/gpm/internal/sim"
)

// The tests in this file launch waves wider than every spawn window they
// use (windowBlocks blocks against windows of 1, 2 and 8), in which every
// block parks at atomics. Parked blocks free their window slots, so the
// spawner keeps going and each round must still commit over the whole wave.
const windowBlocks = 16

// windowRun launches windowBlocks blocks whose threads all park at atomics
// almost immediately, with a spawn window smaller than the wave: the first
// window's blocks quiesce while the wave is partially spawned. Two atomics
// per thread make whole-wave rounds observable: round one's old values are
// 0..gridThreads-1 in canonical (block, thread) order, round two's continue
// at gridThreads — a round committed over a partial wave would break the
// second round's values for the early blocks.
func windowRun(t *testing.T, window int) (olds1, olds2, seqs []uint32, elapsed sim.Duration, seqBase uint64) {
	t.Helper()
	d := newDev(t)
	d.SetWorkers(window)
	const blocks, tpb = windowBlocks, 32
	grid := blocks * tpb
	addr := memsys.PMBase
	olds1 = make([]uint32, grid)
	olds2 = make([]uint32, grid)
	seqs = make([]uint32, 2*grid)
	seqBase = d.Space.SeqMark()
	res := d.Launch("window", blocks, tpb, func(th *Thread) {
		g := th.GlobalID()
		olds1[g] = th.AtomicAdd32(addr, 1)
		seqs[g] = uint32(th.curSeq - seqBase)
		olds2[g] = th.AtomicAdd32(addr, 1)
		seqs[grid+g] = uint32(th.curSeq - seqBase)
	})
	elapsed = res.Elapsed
	if got := d.Space.ReadU32(addr); got != uint32(2*grid) {
		t.Fatalf("window=%d: counter = %d, want %d", window, got, 2*grid)
	}
	return olds1, olds2, seqs, elapsed, seqBase
}

// TestWindowRoundsSeeWholeWave checks the non-negotiable invariant at
// windows 1, 2, and 8: atomic commit order is canonical (block ID, thread
// ID) over the WHOLE wave, and every atomic's PM write sequence number is
// its canonical program position — identical for every window.
func TestWindowRoundsSeeWholeWave(t *testing.T) {
	const grid = windowBlocks * 32
	var ref1, ref2, refSeqs []uint32
	var refElapsed sim.Duration
	for _, window := range []int{1, 2, 8} {
		olds1, olds2, seqs, elapsed, _ := windowRun(t, window)
		for g := 0; g < grid; g++ {
			// Round one commits all gridThreads adds in canonical order, so
			// thread g observes exactly g; round two continues at grid+g.
			if olds1[g] != uint32(g) {
				t.Fatalf("window=%d: round-1 old for thread %d = %d, want %d (commit order not canonical whole-wave)",
					window, g, olds1[g], g)
			}
			if olds2[g] != uint32(grid+g) {
				t.Fatalf("window=%d: round-2 old for thread %d = %d, want %d (round committed over a partial wave?)",
					window, g, olds2[g], grid+g)
			}
			// The atomic is thread g's op 1 (index opBase+g+1) and op 2
			// (index opBase+grid+g+1); PM sequences must match those
			// canonical positions, not any scheduling order.
			if want := uint32(g + 1); seqs[g] != want {
				t.Fatalf("window=%d: round-1 seq for thread %d = %d, want %d", window, g, seqs[g], want)
			}
			if want := uint32(grid + g + 1); seqs[grid+g] != want {
				t.Fatalf("window=%d: round-2 seq for thread %d = %d, want %d", window, g, seqs[grid+g], want)
			}
		}
		if ref1 == nil {
			ref1, ref2, refSeqs, refElapsed = olds1, olds2, seqs, elapsed
			continue
		}
		for g := range ref1 {
			if olds1[g] != ref1[g] || olds2[g] != ref2[g] {
				t.Fatalf("window=%d: old values diverge from window 1 at thread %d", window, g)
			}
		}
		for i := range refSeqs {
			if seqs[i] != refSeqs[i] {
				t.Fatalf("window=%d: PM write sequences diverge from window 1 at %d", window, i)
			}
		}
		if elapsed != refElapsed {
			t.Fatalf("window=%d: elapsed %v != window 1 elapsed %v", window, elapsed, refElapsed)
		}
	}
}

// TestWindowStoresBetweenRounds interleaves per-thread PM stores with the
// atomics so rounds run against threads at different program positions;
// the counter totals and store contents must still be exact at every
// window.
func TestWindowStoresBetweenRounds(t *testing.T) {
	const blocks, tpb = windowBlocks, 32
	grid := blocks * tpb
	for _, window := range []int{1, 2, 8} {
		d := newDev(t)
		d.SetWorkers(window)
		ctr := memsys.PMBase
		data := memsys.PMBase + 64
		d.Launch("window-stores", blocks, tpb, func(th *Thread) {
			g := th.GlobalID()
			old := th.AtomicAdd32(ctr, 1)
			th.StoreU32(data+uint64(4*g), old)
			th.AtomicAdd32(ctr, 1)
			th.FenceSystem()
		})
		for g := 0; g < grid; g++ {
			if got := d.Space.ReadU32(data + uint64(4*g)); got != uint32(g) {
				t.Fatalf("window=%d: stored old for thread %d = %d, want %d", window, g, got, g)
			}
		}
		if got := d.Space.ReadU32(ctr); got != uint32(2*grid) {
			t.Fatalf("window=%d: counter = %d, want %d", window, got, 2*grid)
		}
	}
}

// mixedOutcome is everything mixedRun observes: the Result, the visible and
// durable images of the PM array, and, per thread that reached the first
// atomic, its old value and PM sequence number.
type mixedOutcome struct {
	res              Result
	visible, durable []byte
	olds, seqs       []uint32
}

// mixedRun launches a kernel that mixes every scheduling path: a thread in
// five exits before the first barrier, the rest cross barriers, take
// whole-wave atomic rounds in the same block and fence PM, and every thread
// is unwound at canonical op index abortAt.
func mixedRun(t *testing.T, window int, abortAt int64) mixedOutcome {
	t.Helper()
	d := newDev(t)
	d.SetWorkers(window)
	d.Space.SetDDIOOff(true)
	const blocks, tpb = windowBlocks, 64
	grid := blocks * tpb
	data := d.Space.AllocPM(int64(8*grid), 0)
	ctr := d.Space.AllocPM(64, 0)
	out := mixedOutcome{olds: make([]uint32, grid), seqs: make([]uint32, grid)}
	seqBase := d.Space.SeqMark()
	d.SetAbortCheck(func(op int64) bool { return op >= abortAt })
	out.res = d.Launch("mixed", blocks, tpb, func(th *Thread) {
		g := th.GlobalID()
		if th.ID()%5 == 4 {
			th.StoreU32(data+uint64(4*g), 0xe0e0e0e0)
			return
		}
		th.StoreU32(data+uint64(4*g), uint32(g))
		th.SyncBlock()
		out.olds[g] = th.AtomicAdd32(ctr, 1)
		out.seqs[g] = uint32(th.curSeq - seqBase)
		th.StoreU32(data+uint64(4*(grid+g)), th.LoadU32(data+uint64(4*(g^1)))+out.olds[g])
		th.SyncBlock()
		th.AtomicMax32(ctr+4, uint32(g))
		th.FenceSystem()
		th.SyncBlock()
		th.StoreU32(data+uint64(4*g), ^uint32(g))
	})
	d.SetAbortCheck(nil)
	out.visible = make([]byte, 8*grid)
	d.Space.Read(data, out.visible)
	out.durable = d.Space.SnapshotPersistent(data, 8*grid)
	return out
}

// TestMixedKernelDeterminism runs the mixed kernel to completion and with an
// abort at the second barrier — threads 0..98 pass it and park, the rest
// unwind there, and the parked ones unwind at the next atomic — at windows
// 1, 2 and 8: the Result, both memory images, the atomic old values and the
// PM sequence numbers must match window 1 exactly.
func TestMixedKernelDeterminism(t *testing.T) {
	const grid = windowBlocks * 64
	for _, abortAt := range []int64{1 << 40, 5*grid + 100} {
		ref := mixedRun(t, 1, abortAt)
		if crashed := abortAt < 1<<40; ref.res.Crashed != crashed {
			t.Fatalf("abortAt=%d: Crashed = %v, want %v", abortAt, ref.res.Crashed, crashed)
		}
		for _, window := range []int{2, 8} {
			got := mixedRun(t, window, abortAt)
			if got.res.Elapsed != ref.res.Elapsed || got.res.Crashed != ref.res.Crashed ||
				!reflect.DeepEqual(got.res.Stats, ref.res.Stats) {
				t.Fatalf("abortAt=%d window=%d: Result %+v, window 1 gave %+v", abortAt, window, got.res, ref.res)
			}
			if !bytes.Equal(got.visible, ref.visible) || !bytes.Equal(got.durable, ref.durable) {
				t.Fatalf("abortAt=%d window=%d: memory image differs from window 1", abortAt, window)
			}
			if !reflect.DeepEqual(got.olds, ref.olds) || !reflect.DeepEqual(got.seqs, ref.seqs) {
				t.Fatalf("abortAt=%d window=%d: atomic olds or PM sequences differ from window 1", abortAt, window)
			}
		}
	}
}
