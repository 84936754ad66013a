package workloads

import (
	"testing"

	"github.com/gpm-sim/gpm/internal/gpu"
)

// atomicWorkload launches one kernel in which every thread parks at
// atomics, so the run takes whole-wave atomic rounds under any spawn window.
type atomicWorkload struct{ fakeWorkload }

func (a *atomicWorkload) Run(env *Env) error {
	ctr := env.Ctx.Space.AllocPM(64, 0)
	olds := env.Ctx.Space.AllocPM(4*16*64, 0)
	env.Ctx.Launch("atomics", 16, 64, func(th *gpu.Thread) {
		th.AtomicAdd32(ctr, 1)
		th.StoreU32(olds+uint64(4*th.GlobalID()), th.AtomicAdd32(ctr, 1))
	})
	env.CountOps(int64(env.Ctx.Space.ReadU32(ctr)))
	return nil
}

// WithWorkers is a spawn-window override, not a validated setting: every
// value runs (n <= 0 means GOMAXPROCS, a window wider than the wave is the
// wave) and reproduces the default run's report.
func TestWithWorkersAcceptsAnyWindow(t *testing.T) {
	ref, err := RunWorkload(&atomicWorkload{}, WithConfig(QuickConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Ops != 2*16*64 {
		t.Fatalf("counter = %d, want %d", ref.Ops, 2*16*64)
	}
	for _, n := range []int{-3, 0, 1, 2, 8, 1 << 20} {
		got, err := RunWorkload(&atomicWorkload{}, WithConfig(QuickConfig()), WithWorkers(n))
		if err != nil {
			t.Fatalf("WithWorkers(%d): %v", n, err)
		}
		if *got != *ref {
			t.Errorf("WithWorkers(%d): report %+v, default gave %+v", n, got, ref)
		}
	}
}
