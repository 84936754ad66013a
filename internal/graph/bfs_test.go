package graph

import (
	"testing"

	"github.com/gpm-sim/gpm/internal/workloads"
)

func TestBFSModes(t *testing.T) {
	for _, m := range []workloads.Mode{
		workloads.GPM, workloads.CAPfs, workloads.CAPmm,
		workloads.GPMNDP, workloads.GPMeADR, workloads.CAPeADR, workloads.CPUOnly,
	} {
		t.Run(m.String(), func(t *testing.T) {
			if _, err := workloads.RunWorkload(New(), workloads.WithMode(m), workloads.WithConfig(workloads.QuickConfig())); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBFSGPUfsUnsupported(t *testing.T) {
	if _, err := workloads.RunWorkload(New(), workloads.WithMode(workloads.GPUfs), workloads.WithConfig(workloads.QuickConfig())); err == nil {
		t.Error("BFS should not run on GPUfs")
	}
}

func TestBFSGPMLargestNativeGain(t *testing.T) {
	// The paper's standout result: iterative BFS pays CAP's DMA+persist
	// cost every level, so GPM's advantage is largest here (85× vs
	// CAP-fs in the paper).
	cfg := workloads.QuickConfig()
	g, err := workloads.RunWorkload(New(), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := workloads.RunWorkload(New(), workloads.WithMode(workloads.CAPfs), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(fs.OpTime) / float64(g.OpTime)
	if speedup < 2.5 { // the gap widens with graph scale; see Figure 9 bench
		t.Errorf("BFS GPM speedup over CAP-fs = %.1fx, want >2.5x", speedup)
	}
}

func TestBFSCrashResume(t *testing.T) {
	cfg := workloads.QuickConfig()
	env := workloads.NewEnv(workloads.GPM, cfg)
	b := New()
	if err := b.Setup(env); err != nil {
		t.Fatal(err)
	}
	env.BeginOps()
	if err := b.RunUntilCrash(env, 100000); err != nil {
		t.Fatal(err)
	}
	env.Ctx.Crash()
	lvl := b.DurableLevel(env)
	if err := b.Recover(env); err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(env); err != nil {
		t.Fatal(err)
	}
	if lvl == 0 {
		t.Skip("crash landed before first level persisted; resume still verified")
	}
	t.Logf("resumed from durable level %d of graph with %d nodes", lvl, b.Nodes())
}

func TestBFSCrashResumeViaHarness(t *testing.T) {
	r, err := workloads.RunWorkload(New(), workloads.WithMode(workloads.GPM), workloads.WithConfig(workloads.QuickConfig()), workloads.WithCrashAt(150000))
	if err != nil {
		t.Fatal(err)
	}
	if r.Restore <= 0 {
		t.Error("no restore time recorded")
	}
}
