package serve

import (
	"runtime"
	"testing"

	"github.com/gpm-sim/gpm/internal/workloads"
)

// applyAllocCeiling bounds the heap allocations of one 16-SET Apply, the
// composed figure over the simulator's per-access paths (PM overlay, GPU
// blocks, LLC drain, CPU phases). It sits just above today's count, so a
// regression in any layer below Apply shows up here.
const applyAllocCeiling = 205

// The count is exact on one P: with more, goroutine and pool reuse depend
// on which P a block lands on.
func TestApplyAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sh, err := NewShard(0, ShardConfig{Mode: workloads.GPM, Sets: 1 << 10, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Keys with private slots, so any run of them is a valid batch.
	var keys []uint64
	seen := map[int]bool{}
	for k := uint64(1); len(keys) < 512; k++ {
		if s := sh.SlotOf(k); !seen[s] {
			seen[s] = true
			keys = append(keys, k)
		}
	}
	const fill = 16
	at, val := 0, uint64(0)
	apply := func() {
		if at+fill > len(keys) {
			at = 0
		}
		b := &Batch{SetKeys: keys[at : at+fill], SetVals: make([]uint64, fill)}
		for i := range b.SetVals {
			val++
			b.SetVals[i] = val
		}
		at += fill
		if _, err := sh.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		apply() // warm every pool and slab the path reuses
	}
	allocs := testing.AllocsPerRun(32, apply)
	t.Logf("Apply at fill %d: %v allocs", fill, allocs)
	if allocs > applyAllocCeiling {
		t.Errorf("Apply at fill %d: %v allocs, ceiling %d", fill, allocs, applyAllocCeiling)
	}
	if err := sh.Verify(); err != nil {
		t.Fatal(err)
	}
}
