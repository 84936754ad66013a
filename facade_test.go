package gpm_test

// Tests of the public facade: everything a downstream user touches should
// be reachable through the root package alone.

import (
	"testing"

	gpm "github.com/gpm-sim/gpm"
)

func TestFacadeQuickstart(t *testing.T) {
	ctx := gpm.NewDefaultContext()
	m, err := ctx.Map("/pm/facade", 64*64, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx.PersistBegin()
	res := ctx.Launch("facade", 1, 64, func(th *gpm.Thread) {
		th.StoreU64(m.Addr+uint64(th.GlobalID())*64, uint64(th.GlobalID()))
		gpm.Persist(th)
	})
	ctx.PersistEnd()
	if res.Crashed || res.Elapsed <= 0 {
		t.Fatalf("kernel result %+v", res)
	}
	ctx.Crash()
	for i := 0; i < 64; i++ {
		if got := ctx.Space.ReadU64(m.Addr + uint64(i)*64); got != uint64(i) {
			t.Fatalf("slot %d = %d after crash", i, got)
		}
	}
}

func TestFacadeLoggingAndCheckpoint(t *testing.T) {
	ctx := gpm.NewDefaultContext()
	log, err := ctx.LogCreateHCL("/pm/facade-log", 1<<20, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	ctx.PersistBegin()
	ctx.Launch("log", 2, 64, func(th *gpm.Thread) {
		if err := log.Insert(th, []byte{1, 2, 3, 4}, -1); err != nil {
			t.Error(err)
		}
	})
	ctx.PersistEnd()
	if log.HostTail(0) != 1 {
		t.Error("facade log insert missing")
	}

	src := ctx.Space.AllocHBM(4096)
	cp, err := ctx.CPCreate("/pm/facade-cp", 4096, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Register(src, 4096, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.CheckpointGroup(0); err != nil {
		t.Fatal(err)
	}
	if cp.Seq(0) != 1 {
		t.Error("facade checkpoint sequence wrong")
	}
}

func TestFacadeParams(t *testing.T) {
	p := gpm.DefaultParams()
	if p.WarpSize != 32 || p.PMSeqAlignedBW != 12.5e9 {
		t.Error("default params drifted from Table 3 constants")
	}
	ctx := gpm.NewContext(
		gpm.WithParams(p),
		gpm.WithMemConfig(gpm.MemConfig{HBMSize: 1 << 20, DRAMSize: 1 << 20, PMSize: 1 << 20}),
	)
	ctx.RunCPU("noop", 2, func(th *gpm.CPUThread) {
		th.Compute(gpm.Duration(100))
	})
	if ctx.Timeline.Total() <= 0 {
		t.Error("CPU phase not accounted")
	}
}

// TestFacadeOptions checks that the telemetry option is observable: an
// attached sink receives kernel metrics. (WithParams and WithMemConfig are
// exercised by TestFacadeParams.)
func TestFacadeOptions(t *testing.T) {
	tel := gpm.NewTelemetry()
	ctx := gpm.NewContext(gpm.WithTelemetry(tel, "facade-test"))
	m, err := ctx.Map("/pm/facade-opt", 64*64, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx.PersistBegin()
	ctx.Launch("opt", 4, 64, func(th *gpm.Thread) {
		th.StoreU64(m.Addr+uint64(th.GlobalID()%64)*64, uint64(th.GlobalID()))
		gpm.Persist(th)
	})
	ctx.PersistEnd()
	if tsv := tel.Registry().TSV(); len(tsv) <= len("metric\ttype\tvalue\n") {
		t.Error("telemetry option attached but no metrics recorded")
	}
}

// TestFacadeCrashExports checks the crash-study surface is reachable from
// the root package alone: fault models resolve by name and a Campaign sweep
// runs through the re-exported types.
func TestFacadeCrashExports(t *testing.T) {
	models := gpm.FaultModels()
	if len(models) == 0 {
		t.Fatal("no fault models exported")
	}
	m, err := gpm.FaultModelByName(models[0].Name())
	if err != nil {
		t.Fatal(err)
	}
	var plan gpm.CrashPlan
	plan.Fault = m
	if plan.FaultName() != models[0].Name() {
		t.Fatalf("CrashPlan fault name %q != %q", plan.FaultName(), models[0].Name())
	}
	var c gpm.Campaign
	if c.Workers != 0 {
		t.Fatal("zero Campaign should default Workers to GOMAXPROCS")
	}
}
