// Command gpmrecover is the crash-injection campaign tool (§6.2, the NVBitFI
// analog) grown into a recovery auditor: it aborts the GPU mid-execution,
// simulates the power failure under an adversarial persistence fault model
// (clean rollback, torn lines, torn 8-byte words, reordered persists),
// optionally fails the power again while recovery runs, drives the
// workload's recovery procedure, and verifies the result byte-exactly.
//
//	gpmrecover                              # deterministic campaign: all
//	                                        # models x swept crash points
//	gpmrecover -workload gpKVS              # one workload
//	gpmrecover -recrash-depth 2             # also re-crash during recovery
//	gpmrecover -json                        # machine-readable records
//	gpmrecover -workers 8                   # 8 concurrent runs (same verdicts)
//	gpmrecover -workload gpKVS -mode GPM -faultmodel torn-lines \
//	    -crashat 1234 -faultseed 99         # replay one shrunk failure
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"github.com/gpm-sim/gpm/internal/crash"
	"github.com/gpm-sim/gpm/internal/experiments"
	"github.com/gpm-sim/gpm/internal/pmem"
	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// cliOptions mirrors the flag set for upfront validation: every rejection
// happens before any simulation work, with exit 2 + usage, instead of a
// silent fall-back to defaults mid-run.
type cliOptions struct {
	points, depth, workers, faultLim int
	stride, every, crashAt           int64
	models, mode                     string
}

// validateCLI checks cross-flag consistency and value ranges. Notably:
// unknown -faultmodel names are rejected in every execution path, and a
// -mode that the campaign would ignore is an error rather than a no-op.
func validateCLI(o cliOptions) error {
	if o.workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d (1 = serial reference; default = GOMAXPROCS)", o.workers)
	}
	if o.workers > crash.MaxWorkers {
		return fmt.Errorf("-workers must be <= %d, got %d (results are identical for every value; more workers than runs buys nothing)", crash.MaxWorkers, o.workers)
	}
	if o.points < 1 {
		return fmt.Errorf("-maxpoints must be >= 1, got %d", o.points)
	}
	if o.stride < 0 {
		return fmt.Errorf("-stride must be >= 0, got %d", o.stride)
	}
	if o.depth < 0 {
		return fmt.Errorf("-recrash-depth must be >= 0, got %d", o.depth)
	}
	if o.every < 0 {
		return fmt.Errorf("-recrash-every must be >= 0, got %d", o.every)
	}
	if o.faultLim < 0 {
		return fmt.Errorf("-faultlimit must be >= 0, got %d", o.faultLim)
	}
	if _, err := parseModels(o.models); err != nil {
		return fmt.Errorf("-faultmodel: %w (valid: %s)", err, strings.Join(modelNames(), ", "))
	}
	replaying := o.crashAt >= 0
	if o.mode != "" {
		if !replaying {
			return fmt.Errorf("-mode only applies to -crashat replay")
		}
		if _, err := workloads.ModeByName(o.mode); err != nil {
			return err
		}
	}
	if replaying && strings.Contains(o.models, ",") {
		return fmt.Errorf("-crashat replay takes exactly one -faultmodel, got %q", o.models)
	}
	return nil
}

// modelNames lists the valid -faultmodel arguments.
func modelNames() []string {
	var names []string
	for _, m := range pmem.Models() {
		names = append(names, m.Name())
	}
	return names
}

func main() {
	var (
		only      = flag.String("workload", "", "restrict to one workload name")
		seed      = flag.Uint64("seed", 7, "campaign seed (anchors every derived fault seed)")
		quick     = flag.Bool("quick", true, "use the smaller test-scale configuration")
		models    = flag.String("faultmodel", "", "fault model(s), comma-separated (clean, torn-lines, torn-words, reorder); empty = all in the campaign, clean in -crashat replay")
		points    = flag.Int("maxpoints", crash.DefaultPoints, "swept crash points per (mode, model) pair")
		stride    = flag.Int64("stride", 0, "crash at every stride-th op (0 = derive from -maxpoints)")
		depth     = flag.Int("recrash-depth", 0, "nested crashes injected during recovery")
		every     = flag.Int64("recrash-every", 0, "base op budget between nested recovery crashes (0 = default)")
		shrink    = flag.Bool("shrink", false, "shrink the first failure per workload to a minimal replayable triple")
		asJSON    = flag.Bool("json", false, "emit campaign results as JSON")
		metricsTo = flag.String("metrics", "", "write the telemetry metrics registry (crash/fault counters included) as TSV to this file")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent campaign runs; each run's kernels still use up to GOMAXPROCS cores (1 = serial reference; results are identical for every value)")

		// Replay flags (the shrinker's Replay string uses these).
		modeName  = flag.String("mode", "", "persistence mode for -crashat replay (e.g. GPM)")
		crashAt   = flag.Int64("crashat", -1, "replay a single crash at this op index")
		faultSeed = flag.Uint64("faultseed", 0, "fault-model seed for -crashat replay")
		faultLim  = flag.Int("faultlimit", 0, "fault only the first N dirty lines (0 = all)")
	)
	flag.Parse()

	if err := validateCLI(cliOptions{
		points: *points, depth: *depth, workers: *workers, faultLim: *faultLim,
		stride: *stride, every: *every, crashAt: *crashAt,
		models: *models, mode: *modeName,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "gpmrecover:", err)
		flag.Usage()
		os.Exit(2)
	}

	cfg := workloads.DefaultConfig()
	if *quick {
		cfg = workloads.QuickConfig()
	}
	var tel *telemetry.Telemetry
	if *metricsTo != "" {
		tel = telemetry.New()
		cfg.Telemetry = tel
	}

	mks := selectWorkloads(*only)
	if len(mks) == 0 {
		var names []string
		for _, mk := range append(experiments.Crashers(), experiments.NativeCrashers()...) {
			names = append(names, mk().Name())
		}
		fmt.Fprintf(os.Stderr, "gpmrecover: unknown workload %q (valid: %s)\n", *only, strings.Join(names, ", "))
		flag.Usage()
		os.Exit(2)
	}

	var code int
	if *crashAt >= 0 {
		code = replay(mks, cfg, *modeName, *models, *crashAt, *faultSeed, *faultLim, *depth, *every)
	} else {
		code = campaign(mks, cfg, *seed, *stride, *points, *models, *depth, *every, *workers, *shrink, *asJSON)
	}
	if tel != nil {
		if err := os.WriteFile(*metricsTo, []byte(tel.Metrics.TSV()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "gpmrecover: %v\n", err)
			if code == 0 {
				code = 2
			}
		} else {
			fmt.Fprintf(os.Stderr, "metrics -> %s\n", *metricsTo)
		}
	}
	os.Exit(code)
}

// selectWorkloads returns the recoverable workload constructors, optionally
// filtered by name.
func selectWorkloads(only string) []func() workloads.Crasher {
	var out []func() workloads.Crasher
	for _, mk := range append(experiments.Crashers(), experiments.NativeCrashers()...) {
		if only == "" || mk().Name() == only {
			out = append(out, mk)
		}
	}
	return out
}

// parseModels resolves a comma-separated model list; empty means all.
func parseModels(spec string) ([]pmem.FaultModel, error) {
	if spec == "" || spec == "all" {
		return nil, nil // campaign default: every model
	}
	var out []pmem.FaultModel
	for _, name := range strings.Split(spec, ",") {
		m, err := pmem.ModelByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// campaign runs the deterministic sweep.
func campaign(mks []func() workloads.Crasher, cfg workloads.Config, seed uint64, stride int64, points int, modelSpec string, depth int, every int64, workers int, shrink, asJSON bool) int {
	models, err := parseModels(modelSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpmrecover: %v\n", err)
		return 2
	}
	c := &crash.Campaign{
		Seed:         seed,
		Stride:       stride,
		MaxPoints:    points,
		Models:       models,
		RecrashDepth: depth,
		RecrashEvery: every,
		Workers:      workers,
	}
	results, err := c.RunAll(mks, cfg, shrink)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpmrecover: %v\n", err)
		return 2
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "gpmrecover: %v\n", err)
			return 2
		}
	}
	failures, total := 0, 0
	for _, wc := range results {
		total += len(wc.Runs)
		failures += wc.Failures
		if asJSON {
			continue
		}
		fmt.Printf("%-8s %d ops, %d runs, %d failures\n", wc.Workload, wc.TotalOps, len(wc.Runs), wc.Failures)
		for _, r := range wc.Runs {
			if r.Err != "" {
				fmt.Printf("  FAIL %s/%s@%d seed=%d: %s\n", r.Mode, r.Model, r.CrashAt, r.FaultSeed, r.Err)
			}
		}
		if wc.Shrunk != nil {
			fmt.Printf("  shrunk: %s\n", wc.Shrunk.Replay)
		}
	}
	if !asJSON {
		fmt.Printf("\n%d/%d campaign runs verified\n", total-failures, total)
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// replay re-executes one (seed, schedule, model) triple, typically pasted
// from a shrunk failure report.
func replay(mks []func() workloads.Crasher, cfg workloads.Config, modeName, modelSpec string, crashAt int64, faultSeed uint64, faultLim, depth int, every int64) int {
	if len(mks) != 1 {
		fmt.Fprintf(os.Stderr, "gpmrecover: -crashat replay needs -workload naming exactly one workload\n")
		return 2
	}
	mode := workloads.GPM
	if modeName != "" {
		m, err := workloads.ModeByName(modeName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpmrecover: %v\n", err)
			return 2
		}
		mode = m
	}
	var model pmem.FaultModel
	if modelSpec != "" {
		m, err := pmem.ModelByName(modelSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpmrecover: %v\n", err)
			return 2
		}
		model = m
	}
	if faultLim > 0 {
		if model == nil {
			model = pmem.Clean{}
		}
		model = pmem.Subset{Base: model, Limit: faultLim}
	}
	rep, err := workloads.RunWorkload(mks[0](), workloads.WithMode(mode), workloads.WithConfig(cfg), workloads.WithCrashPlan(workloads.CrashPlan{
		AbortAfterOps: crashAt,
		Fault:         model,
		FaultSeed:     faultSeed,
		RecrashDepth:  depth,
		RecrashEvery:  every,
	}))
	name := mks[0]().Name()
	if err != nil {
		fmt.Printf("FAIL %s/%s@%d seed=%d: %v\n", name, mode, crashAt, faultSeed, err)
		return 1
	}
	fmt.Printf("ok   %s/%s@%d seed=%d: restored in %v (%.2f%% of op time)\n",
		name, mode, crashAt, faultSeed, rep.Restore, rep.RestoreFraction()*100)
	return 0
}
