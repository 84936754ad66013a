package stencil

import (
	"testing"

	"github.com/gpm-sim/gpm/internal/workloads"
)

func run(t *testing.T, w workloads.Workload, mode workloads.Mode) *workloads.Report {
	t.Helper()
	r, err := workloads.RunWorkload(w, workloads.WithMode(mode), workloads.WithConfig(workloads.QuickConfig()))
	if err != nil {
		t.Fatalf("%s/%v: %v", w.Name(), mode, err)
	}
	return r
}

func TestSRADAllModes(t *testing.T) {
	for _, m := range []workloads.Mode{
		workloads.GPM, workloads.CAPfs, workloads.CAPmm, workloads.GPUfs,
		workloads.GPMNDP, workloads.GPMeADR, workloads.CAPeADR, workloads.CPUOnly,
	} {
		t.Run(m.String(), func(t *testing.T) { run(t, NewSRAD(), m) })
	}
}

func TestSRADUnalignedPattern(t *testing.T) {
	// SRAD's PM writes are streaming but NOT 256B-aligned (§6.1).
	r := run(t, NewSRAD(), workloads.GPM)
	if r.AlignedFrac > 0.35 {
		t.Errorf("SRAD writes are %.0f%% aligned; misalignment lost", r.AlignedFrac*100)
	}
	if r.SeqFrac < 0.5 {
		t.Errorf("SRAD writes only %.0f%% sequential; streaming lost", r.SeqFrac*100)
	}
}

func TestSRADGPMBeatsCAPAndCPU(t *testing.T) {
	g := run(t, NewSRAD(), workloads.GPM)
	fs := run(t, NewSRAD(), workloads.CAPfs)
	cpu := run(t, NewSRAD(), workloads.CPUOnly)
	if g.OpTime >= fs.OpTime {
		t.Errorf("GPM %v vs CAP-fs %v", g.OpTime, fs.OpTime)
	}
	if g.OpTime >= cpu.OpTime {
		t.Errorf("GPM %v vs CPU %v", g.OpTime, cpu.OpTime)
	}
}

func TestSRADCrashRecovery(t *testing.T) {
	r, err := workloads.RunWorkload(NewSRAD(), workloads.WithMode(workloads.GPM), workloads.WithConfig(workloads.QuickConfig()), workloads.WithCrashAt(30000))
	if err != nil {
		t.Fatal(err)
	}
	if r.Restore <= 0 {
		t.Error("no restore time recorded")
	}
}

func TestHotspotModes(t *testing.T) {
	for _, m := range []workloads.Mode{
		workloads.GPM, workloads.CAPfs, workloads.CAPmm,
		workloads.GPMNDP, workloads.GPMeADR, workloads.CAPeADR,
	} {
		t.Run(m.String(), func(t *testing.T) {
			r := run(t, NewHotspot(), m)
			if r.CkptTime <= 0 {
				t.Error("no checkpoint time recorded")
			}
		})
	}
}

func TestHotspotRejectsGPUfsAndCPU(t *testing.T) {
	if _, err := workloads.RunWorkload(NewHotspot(), workloads.WithMode(workloads.GPUfs), workloads.WithConfig(workloads.QuickConfig())); err == nil {
		t.Error("HS must fail on GPUfs (file too large in the paper)")
	}
	if _, err := workloads.RunWorkload(NewHotspot(), workloads.WithMode(workloads.CPUOnly), workloads.WithConfig(workloads.QuickConfig())); err == nil {
		t.Error("HS has no CPU-only counterpart")
	}
}

func TestHotspotCheckpointFasterOnGPM(t *testing.T) {
	g := run(t, NewHotspot(), workloads.GPM)
	fs := run(t, NewHotspot(), workloads.CAPfs)
	mm := run(t, NewHotspot(), workloads.CAPmm)
	if g.CkptTime >= mm.CkptTime {
		t.Errorf("GPM ckpt %v not faster than CAP-mm %v", g.CkptTime, mm.CkptTime)
	}
	if mm.CkptTime >= fs.CkptTime {
		t.Errorf("CAP-mm ckpt %v not faster than CAP-fs %v", mm.CkptTime, fs.CkptTime)
	}
}

func TestHotspotCrashRecovery(t *testing.T) {
	// Crash late enough that at least one checkpoint is durable.
	r, err := workloads.RunWorkload(NewHotspot(), workloads.WithMode(workloads.GPM), workloads.WithConfig(workloads.QuickConfig()), workloads.WithCrashAt(140000))
	if err != nil {
		t.Fatal(err)
	}
	if r.Restore <= 0 {
		t.Error("no restore latency recorded")
	}
	// Table 5: checkpoint restoration is a small fraction of op time.
	if r.RestoreFraction() > 0.5 {
		t.Errorf("restore fraction %.2f implausibly large", r.RestoreFraction())
	}
}

func TestCFDModes(t *testing.T) {
	for _, m := range []workloads.Mode{
		workloads.GPM, workloads.CAPfs, workloads.CAPmm, workloads.GPUfs,
		workloads.GPMNDP, workloads.GPMeADR, workloads.CAPeADR,
	} {
		t.Run(m.String(), func(t *testing.T) {
			r := run(t, NewCFD(), m)
			if r.CkptTime <= 0 {
				t.Error("no checkpoint time recorded")
			}
		})
	}
}

func TestCFDCheckpointGroupsRestoreTogether(t *testing.T) {
	// Covered by Verify (restores all three arrays from one group); this
	// test just pins the GPM mode end to end.
	run(t, NewCFD(), workloads.GPM)
}

func TestCheckpointEADRBenefit(t *testing.T) {
	// eADR checkpointing is at most modestly better: a single persist
	// at the end means checkpointing is "mostly agnostic to eADR" (§6.1).
	g := run(t, NewHotspot(), workloads.GPM)
	e := run(t, NewHotspot(), workloads.GPMeADR)
	if e.CkptTime > g.CkptTime {
		t.Errorf("eADR ckpt (%v) slower than GPM (%v)", e.CkptTime, g.CkptTime)
	}
	ratio := float64(g.CkptTime) / float64(e.CkptTime)
	if ratio > 3 {
		t.Errorf("checkpointing should be mostly eADR-agnostic; got %.1fx", ratio)
	}
}
