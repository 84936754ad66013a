package scan

import (
	"testing"

	"github.com/gpm-sim/gpm/internal/workloads"
)

func runMode(t *testing.T, mode workloads.Mode) *workloads.Report {
	t.Helper()
	r, err := workloads.RunWorkload(New(), workloads.WithMode(mode), workloads.WithConfig(workloads.QuickConfig()))
	if err != nil {
		t.Fatalf("%v: %v", mode, err)
	}
	return r
}

func TestPSAllModesCorrect(t *testing.T) {
	for _, m := range []workloads.Mode{
		workloads.GPM, workloads.CAPfs, workloads.CAPmm,
		workloads.GPMNDP, workloads.GPMeADR, workloads.CAPeADR, workloads.CPUOnly,
	} {
		t.Run(m.String(), func(t *testing.T) { runMode(t, m) })
	}
}

func TestPSGPUfsUnsupported(t *testing.T) {
	if _, err := workloads.RunWorkload(New(), workloads.WithMode(workloads.GPUfs), workloads.WithConfig(workloads.QuickConfig())); err == nil {
		t.Fatal("PS should not run on GPUfs")
	}
}

func TestPSGPMFasterThanCAP(t *testing.T) {
	gpm := runMode(t, workloads.GPM)
	capfs := runMode(t, workloads.CAPfs)
	capmm := runMode(t, workloads.CAPmm)
	if gpm.OpTime >= capmm.OpTime {
		t.Errorf("GPM (%v) not faster than CAP-mm (%v)", gpm.OpTime, capmm.OpTime)
	}
	if capmm.OpTime >= capfs.OpTime {
		t.Errorf("CAP-mm (%v) not faster than CAP-fs (%v)", capmm.OpTime, capfs.OpTime)
	}
}

func TestPSGPMFasterThanCPU(t *testing.T) {
	gpm := runMode(t, workloads.GPM)
	cpu := runMode(t, workloads.CPUOnly)
	if gpm.OpTime >= cpu.OpTime {
		t.Errorf("GPM (%v) not faster than CPU (%v)", gpm.OpTime, cpu.OpTime)
	}
}

func TestPSWriteAmplificationIsUnity(t *testing.T) {
	// Table 4: native workloads have WA 1.0 — CAP persists the same
	// bytes as GPM (the full output), within tolerance for log/meta.
	gpm := runMode(t, workloads.GPM)
	capmm := runMode(t, workloads.CAPmm)
	wa := float64(capmm.PMBytes) / float64(gpm.PMBytes)
	if wa < 0.8 || wa > 1.3 {
		t.Errorf("PS write amplification = %.2f, want ~1.0", wa)
	}
}

func TestPSCrashRecoveryResumes(t *testing.T) {
	cfg := workloads.QuickConfig()
	r, err := workloads.RunWorkload(New(), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg), workloads.WithCrashAt(20000))
	if err != nil {
		t.Fatal(err)
	}
	if r.Restore <= 0 {
		t.Error("no restore time recorded")
	}
}

func TestPSCrashLeavesPartialDurableState(t *testing.T) {
	cfg := workloads.QuickConfig()
	env := workloads.NewEnv(workloads.GPM, cfg)
	p := New()
	if err := p.Setup(env); err != nil {
		t.Fatal(err)
	}
	env.BeginOps()
	if err := p.RunUntilCrash(env, 60000); err != nil {
		t.Fatal(err)
	}
	env.Ctx.Crash()
	done := p.CompletedBlocks(env)
	if done == 0 {
		t.Skip("crash landed before any block completed; nothing to assert")
	}
	if done >= p.Blocks() {
		t.Fatalf("all %d blocks completed; crash landed too late for the resume test", done)
	}
	// Resume must finish and verify.
	if err := p.Recover(env); err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(env); err != nil {
		t.Fatal(err)
	}
}

func TestPSResumeSkipsCompletedBlocks(t *testing.T) {
	cfg := workloads.QuickConfig()
	env := workloads.NewEnv(workloads.GPM, cfg)
	p := New()
	if err := p.Setup(env); err != nil {
		t.Fatal(err)
	}
	env.BeginOps()
	if err := p.RunUntilCrash(env, 60000); err != nil {
		t.Fatal(err)
	}
	env.Ctx.Crash()
	done := p.CompletedBlocks(env)
	if done == 0 || done >= p.Blocks() {
		t.Skipf("crash point unusable for skip test (done=%d)", done)
	}
	before := env.Ctx.Space.PM.BytesWritten()
	if err := p.Recover(env); err != nil {
		t.Fatal(err)
	}
	resumed := env.Ctx.Space.PM.BytesWritten() - before
	fullPsums := int64(p.Blocks()) * tpb * 4
	// Recovery rewrites only the incomplete blocks' partial sums (plus
	// the full final output).
	maxExpected := fullPsums - int64(done)*tpb*4 + fullPsums + 4096
	if resumed > maxExpected {
		t.Errorf("resume rewrote %d bytes, want ≤ %d (done=%d/%d blocks)",
			resumed, maxExpected, done, p.Blocks())
	}
}
