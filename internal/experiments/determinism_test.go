package experiments

// The determinism suite is the engine's bit-identity contract, checked at
// the API surface users see: running any GPMbench workload with a spawn
// window of 1 block (the serial reference, set through workloads.WithWorkers)
// and of 8 blocks must produce identical simulated durations, identical
// metrics TSV bytes, identical Chrome-trace bytes, and identical
// crash-campaign verdicts. CI runs this file under -race with -cpu=1,4 so
// real parallel interleavings are exercised, not just simulated; -cpu also
// sets the default window (GOMAXPROCS) of every run that does not use the
// hook.

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"github.com/gpm-sim/gpm/internal/crash"
	"github.com/gpm-sim/gpm/internal/kvstore"
	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// runReport captures everything a worker count could possibly perturb.
type runReport struct {
	rep *workloads.Report
	tsv string
}

func runAt(t *testing.T, mk func() workloads.Workload, cfg workloads.Config, workers int) runReport {
	t.Helper()
	tel := telemetry.New()
	rep, err := workloads.RunWorkload(mk(),
		workloads.WithConfig(cfg),
		workloads.WithTelemetry(tel),
		workloads.WithWorkers(workers))
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return runReport{rep: rep, tsv: tel.Metrics.TSV()}
}

// TestDeterminismAcrossWorkers runs every GPMbench workload with the serial
// reference and an 8-goroutine pool and requires bit-identical results.
func TestDeterminismAcrossWorkers(t *testing.T) {
	cfg := workloads.QuickConfig()
	for _, mk := range Suite() {
		mk := mk
		t.Run(mk().Name(), func(t *testing.T) {
			t.Parallel()
			serial := runAt(t, mk, cfg, 1)
			parallel := runAt(t, mk, cfg, 8)
			if serial.rep.OpTime != parallel.rep.OpTime {
				t.Errorf("simulated OpTime depends on workers: 1 -> %v, 8 -> %v",
					serial.rep.OpTime, parallel.rep.OpTime)
			}
			if serial.rep.TotalTime != parallel.rep.TotalTime {
				t.Errorf("simulated TotalTime depends on workers: 1 -> %v, 8 -> %v",
					serial.rep.TotalTime, parallel.rep.TotalTime)
			}
			if serial.rep.CkptTime != parallel.rep.CkptTime {
				t.Errorf("CkptTime depends on workers: 1 -> %v, 8 -> %v",
					serial.rep.CkptTime, parallel.rep.CkptTime)
			}
			if serial.rep.PMBytes != parallel.rep.PMBytes || serial.rep.Ops != parallel.rep.Ops {
				t.Errorf("PM traffic depends on workers: 1 -> (%d B, %d ops), 8 -> (%d B, %d ops)",
					serial.rep.PMBytes, serial.rep.Ops, parallel.rep.PMBytes, parallel.rep.Ops)
			}
			if serial.tsv != parallel.tsv {
				t.Errorf("metrics TSV differs between 1 and 8 workers:\n--- workers=1\n%s\n--- workers=8\n%s",
					serial.tsv, parallel.tsv)
			}
		})
	}
}

// TestDeterminismTraceBytes requires the Chrome-trace export to be
// byte-identical across worker counts for a representative workload (spans
// are keyed on simulated time, so host scheduling must not leak in).
func TestDeterminismTraceBytes(t *testing.T) {
	cfg := workloads.QuickConfig()
	trace := func(workers int) []byte {
		tel := telemetry.New()
		if _, err := workloads.RunWorkload(kvstore.New(),
			workloads.WithConfig(cfg),
			workloads.WithTelemetry(tel),
			workloads.WithWorkers(workers)); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return tel.Trace.ChromeTrace()
	}
	serial := trace(1)
	parallel := trace(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("Chrome trace differs between 1 and 8 workers (%d vs %d bytes)",
			len(serial), len(parallel))
	}
}

// TestDeterminismCampaignVerdicts sweeps a crash campaign serially and in
// parallel at both levels — 1 vs 8 concurrent campaign runs, and a kernel
// spawn window of 1 vs 8 blocks — and requires identical record sets and
// identical merged metrics. Campaign runs take the default window, so the
// sweep sets it through GOMAXPROCS; the test is not parallel, so no other
// test sees the change.
func TestDeterminismCampaignVerdicts(t *testing.T) {
	cfg := workloads.QuickConfig()
	sweep := func(workers int) ([]byte, string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		c := &crash.Campaign{Seed: 7, MaxPoints: 2, RecrashDepth: 1, Workers: workers}
		runCfg := cfg
		tel := telemetry.New()
		runCfg.Telemetry = tel
		wc, err := c.Run(func() workloads.Crasher { return kvstore.New() }, runCfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		blob, err := json.Marshal(wc)
		if err != nil {
			t.Fatal(err)
		}
		return blob, tel.Metrics.TSV()
	}
	serialBlob, serialTSV := sweep(1)
	parBlob, parTSV := sweep(8)
	if !bytes.Equal(serialBlob, parBlob) {
		t.Fatalf("campaign verdicts differ between 1 and 8 workers:\n--- workers=1\n%s\n--- workers=8\n%s",
			serialBlob, parBlob)
	}
	if serialTSV != parTSV {
		t.Fatalf("campaign metrics differ between 1 and 8 workers:\n--- workers=1\n%s\n--- workers=8\n%s",
			serialTSV, parTSV)
	}
}

// TestDeterminismCampaignRepeat runs the same crash campaign twice in one
// process. Every run releases its node for the next, so the second sweep
// executes entirely on arenas the first one dirtied, and its verdicts must
// not change.
func TestDeterminismCampaignRepeat(t *testing.T) {
	sweep := func() []byte {
		c := &crash.Campaign{Seed: 7, MaxPoints: 2, RecrashDepth: 1, Workers: 2}
		wc, err := c.Run(func() workloads.Crasher { return kvstore.New() }, workloads.QuickConfig())
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(wc)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if first, second := sweep(), sweep(); !bytes.Equal(first, second) {
		t.Fatalf("campaign verdicts differ between two sweeps in one process:\n--- first\n%s\n--- second\n%s",
			first, second)
	}
}
