package dnn

import (
	"testing"

	"github.com/gpm-sim/gpm/internal/workloads"
)

func TestDNNModes(t *testing.T) {
	for _, m := range []workloads.Mode{
		workloads.GPM, workloads.CAPfs, workloads.CAPmm, workloads.GPUfs,
		workloads.GPMNDP, workloads.GPMeADR, workloads.CAPeADR,
	} {
		t.Run(m.String(), func(t *testing.T) {
			r, err := workloads.RunWorkload(New(), workloads.WithMode(m), workloads.WithConfig(workloads.QuickConfig()))
			if err != nil {
				t.Fatal(err)
			}
			if r.CkptTime <= 0 {
				t.Error("no checkpoint time")
			}
		})
	}
}

func TestDNNLearnsAndCheckpointFaster(t *testing.T) {
	cfg := workloads.QuickConfig()
	g, err := workloads.RunWorkload(New(), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	mm, err := workloads.RunWorkload(New(), workloads.WithMode(workloads.CAPmm), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if g.CkptTime >= mm.CkptTime {
		t.Errorf("GPM ckpt %v not faster than CAP-mm %v", g.CkptTime, mm.CkptTime)
	}
}

func TestDNNCrashRecovery(t *testing.T) {
	// Crash well into training, after at least one checkpoint.
	r, err := workloads.RunWorkload(New(), workloads.WithMode(workloads.GPM), workloads.WithConfig(workloads.QuickConfig()), workloads.WithCrashAt(1200000))
	if err != nil {
		t.Fatal(err)
	}
	if r.Restore <= 0 {
		t.Error("no restore time recorded")
	}
	// Table 5: DNN restoration is a tiny fraction of operation time
	// (0.12% in the paper; allow a loose bound here).
	if r.RestoreFraction() > 0.2 {
		t.Errorf("restore fraction %.3f too large", r.RestoreFraction())
	}
}

func TestDNNNoCPUMode(t *testing.T) {
	if _, err := workloads.RunWorkload(New(), workloads.WithMode(workloads.CPUOnly), workloads.WithConfig(workloads.QuickConfig())); err == nil {
		t.Error("DNN training has no CPU-only counterpart in the suite")
	}
}
