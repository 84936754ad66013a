package workloads

import (
	"fmt"
	"testing"

	"github.com/gpm-sim/gpm/internal/sim"
)

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		GPM: "GPM", CAPfs: "CAP-fs", CAPmm: "CAP-mm", GPUfs: "GPUfs",
		GPMNDP: "GPM-NDP", GPMeADR: "GPM-eADR", CAPeADR: "CAP-eADR", CPUOnly: "CPU",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
	if Mode(99).String() != "unknown" {
		t.Error("unknown mode string")
	}
}

func TestModePredicates(t *testing.T) {
	if !GPM.UsesGPM() || !GPMeADR.UsesGPM() || GPMNDP.UsesGPM() {
		t.Error("UsesGPM wrong")
	}
	for _, m := range []Mode{CAPfs, CAPmm, CAPeADR, GPMNDP} {
		if !m.UsesCAP() {
			t.Errorf("%v should use CAP", m)
		}
	}
	if GPM.UsesCAP() || GPUfs.UsesCAP() {
		t.Error("UsesCAP wrong")
	}
	if !GPMeADR.EADR() || !CAPeADR.EADR() || GPM.EADR() {
		t.Error("EADR wrong")
	}
}

func TestEnvEADRWiring(t *testing.T) {
	if !NewEnv(GPMeADR, QuickConfig()).Ctx.Space.EADR() {
		t.Error("eADR mode did not enable eADR on the space")
	}
	if NewEnv(GPM, QuickConfig()).Ctx.Space.EADR() {
		t.Error("GPM mode should not enable eADR")
	}
}

func TestPersistKernelBeginOnlyForGPM(t *testing.T) {
	e := NewEnv(GPM, QuickConfig())
	e.PersistKernelBegin()
	if !e.Ctx.Space.DDIOOff() {
		t.Error("GPM should disable DDIO")
	}
	e.PersistKernelEnd()
	if e.Ctx.Space.DDIOOff() {
		t.Error("DDIO not restored")
	}
	e2 := NewEnv(GPMeADR, QuickConfig())
	e2.PersistKernelBegin()
	if e2.Ctx.Space.DDIOOff() {
		t.Error("eADR mode must keep DDIO on")
	}
}

func TestEnvMetrics(t *testing.T) {
	e := NewEnv(GPM, QuickConfig())
	e.Ctx.Timeline.Add("setup", 10*sim.Microsecond)
	e.BeginOps()
	e.Ctx.Timeline.Add("kernel", 30*sim.Microsecond)
	e.CountOps(100)
	e.AddRestore(3 * sim.Microsecond)
	e.AddCheckpoint(5 * sim.Microsecond)
	if e.OpTime() != 30*sim.Microsecond {
		t.Errorf("OpTime = %v (setup must be excluded)", e.OpTime())
	}
	w := &fakeWorkload{}
	r, err := RunWorkload(w, WithMode(GPM), WithConfig(QuickConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "fake" || r.Class != "native" || r.Mode != GPM {
		t.Errorf("report identity: %+v", r)
	}
	if r.Ops != 42 || r.Throughput() <= 0 {
		t.Errorf("ops = %d", r.Ops)
	}
}

func TestRestoreFraction(t *testing.T) {
	r := &Report{OpTime: 110, Restore: 10, SetupTime: 0}
	if got := r.RestoreFraction(); got != 0.1 {
		t.Errorf("RestoreFraction = %v", got)
	}
	zero := &Report{}
	if zero.RestoreFraction() != 0 || zero.Throughput() != 0 {
		t.Error("zero report should not divide by zero")
	}
}

type fakeWorkload struct{ setup, run, verify bool }

func (f *fakeWorkload) Name() string            { return "fake" }
func (f *fakeWorkload) Class() string           { return "native" }
func (f *fakeWorkload) Supports(mode Mode) bool { return mode == GPM }
func (f *fakeWorkload) Setup(env *Env) error    { f.setup = true; return nil }
func (f *fakeWorkload) Run(env *Env) error {
	f.run = true
	env.Ctx.Timeline.Add("work", sim.Microsecond)
	env.CountOps(42)
	return nil
}
func (f *fakeWorkload) Verify(env *Env) error { f.verify = true; return nil }

func TestRunOneLifecycle(t *testing.T) {
	w := &fakeWorkload{}
	if _, err := RunWorkload(w, WithMode(GPM), WithConfig(QuickConfig())); err != nil {
		t.Fatal(err)
	}
	if !w.setup || !w.run || !w.verify {
		t.Error("lifecycle incomplete")
	}
	if _, err := RunWorkload(&fakeWorkload{}, WithMode(CAPfs), WithConfig(QuickConfig())); err == nil {
		t.Error("unsupported mode should error")
	}
}

type failingWorkload struct {
	fakeWorkload
	failAt string
}

func (f *failingWorkload) Setup(env *Env) error {
	if f.failAt == "setup" {
		return fmt.Errorf("boom")
	}
	return nil
}
func (f *failingWorkload) Run(env *Env) error {
	if f.failAt == "run" {
		return fmt.Errorf("boom")
	}
	return nil
}
func (f *failingWorkload) Verify(env *Env) error {
	if f.failAt == "verify" {
		return fmt.Errorf("boom")
	}
	return nil
}

func TestRunOnePropagatesErrors(t *testing.T) {
	for _, at := range []string{"setup", "run", "verify"} {
		if _, err := RunWorkload(&failingWorkload{failAt: at}, WithMode(GPM), WithConfig(QuickConfig())); err == nil {
			t.Errorf("error in %s not propagated", at)
		}
	}
}

func TestPersistBufferModes(t *testing.T) {
	for _, m := range []Mode{CAPfs, CAPmm, CAPeADR, GPMNDP} {
		env := NewEnv(m, QuickConfig())
		f, err := env.Ctx.FS.Create("/pm/pb", 4096, 0)
		if err != nil {
			t.Fatal(err)
		}
		src := env.Ctx.Space.AllocHBM(4096)
		env.Ctx.Space.WriteCPU(src, []byte{1, 2, 3, 4})
		if err := PersistBuffer(env, f, 0, src, 4096); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		env.Ctx.Crash()
		got := make([]byte, 4)
		env.Ctx.Space.Read(f.Mmap(), got)
		if got[0] != 1 || got[3] != 4 {
			t.Errorf("%v: data lost (%v)", m, got)
		}
	}
	// GPM-class modes are no-ops (the kernel persisted already).
	env := NewEnv(GPM, QuickConfig())
	f, _ := env.Ctx.FS.Create("/pm/pb2", 4096, 0)
	if err := PersistBuffer(env, f, 0, env.Ctx.Space.AllocHBM(64), 64); err != nil {
		t.Fatal(err)
	}
}
