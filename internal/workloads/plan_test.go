package workloads_test

import (
	"strings"
	"testing"

	"github.com/gpm-sim/gpm/internal/kvstore"
	"github.com/gpm-sim/gpm/internal/pmem"
	"github.com/gpm-sim/gpm/internal/scan"
	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// TestCrashPointEdges drives WithCrashAt at the degenerate schedule points:
// the very first device operation, one op in, and a point far past the total
// op count (the run completes; the crash hits whatever is left unpersisted).
func TestCrashPointEdges(t *testing.T) {
	cases := []struct {
		name string
		mk   func() workloads.Crasher
	}{
		{"gpKVS", func() workloads.Crasher { return kvstore.New() }},
		{"PS", func() workloads.Crasher { return scan.New() }},
	}
	points := []int64{0, 1, 1 << 40}
	for _, tc := range cases {
		for _, pt := range points {
			tc, pt := tc, pt
			t.Run(tc.name, func(t *testing.T) {
				t.Parallel()
				rep, err := workloads.RunWorkload(tc.mk(), workloads.WithMode(workloads.GPM), workloads.WithConfig(workloads.QuickConfig()), workloads.WithCrashAt(pt))
				if err != nil {
					t.Fatalf("crash@%d: %v", pt, err)
				}
				if rep.Restore < 0 {
					t.Errorf("crash@%d: negative restore time %v", pt, rep.Restore)
				}
			})
		}
	}
}

func TestRunWithPlanRejectsUnsupportedMode(t *testing.T) {
	_, err := workloads.RunWorkload(kvstore.New(), workloads.WithMode(workloads.CPUOnly), workloads.WithConfig(workloads.QuickConfig()), workloads.WithCrashAt(10))
	if err == nil || !strings.Contains(err.Error(), "does not support") {
		t.Fatalf("want unsupported-mode error, got %v", err)
	}
}

// TestCrashTelemetryCounters checks that an adversarial run surfaces the
// fault-injection counters in the metrics registry TSV (the same registry
// gpmbench/gpmrecover dump via -metrics).
func TestCrashTelemetryCounters(t *testing.T) {
	cfg := workloads.QuickConfig()
	tel := telemetry.New()
	cfg.Telemetry = tel
	_, err := workloads.RunWorkload(kvstore.New(), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg), workloads.WithCrashPlan(workloads.CrashPlan{
		AbortAfterOps: 200,
		Fault:         pmem.TornLines{},
		FaultSeed:     42,
		RecrashDepth:  2,
	}))
	if err != nil {
		t.Fatalf("plan run: %v", err)
	}
	tsv := tel.Metrics.TSV()
	for _, name := range []string{
		"crash.injected",
		"crash.recovery_attempts",
		"pmem.crashes",
		"pmem.crash_lines_rolled_back",
	} {
		if !strings.Contains(tsv, name) {
			t.Errorf("metrics TSV missing %s:\n%s", name, tsv)
		}
	}
}
