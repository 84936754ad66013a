// Command bench is the repository's one benchmark: five workloads on two
// clocks (host wall and simulated), every output checked, and a traced mode
// that attributes the time to layers. BENCHMARK.json at the repository root
// declares the workloads and metrics; README.md explains them.
//
//	go run ./bench                                  every workload, end-to-end metrics
//	go run ./bench -workload kv-read-hot -seed 7    one workload
//	go run ./bench -trace 1                         per-layer metrics + span file
//	go run ./bench -compare a.json b.json           two -out files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runCtx is what a workload needs to know about the run it is part of.
type runCtx struct {
	seed    uint64
	seconds float64
	traced  bool
	smoke   bool
	tr      *tracer // nil unless traced
	root    int     // the workload's span, parent of its phases
	res     *result
}

// measure is the time the workload's timed phases may take in total.
func (rc *runCtx) measure() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

// trials is how many equal trials a serve workload's timed phase is cut
// into: six, or fewer when that would leave a trial under two seconds and
// its p99 with too few samples beyond it.
func (rc *runCtx) trials() int {
	return max(1, min(6, int(rc.seconds/2)))
}

// scale shortens a fixed auxiliary phase (warm-up) in smoke runs.
func (rc *runCtx) scale(d time.Duration) time.Duration {
	if rc.smoke {
		return d / 10
	}
	return d
}

var runners = map[string]func(rc *runCtx, name string) error{
	wKVWrite: runKV,
	wKVRead:  runKV,
	wTxn:     runTxn,
	wSim:     runSimSuite,
	wCrash:   runCrashSweep,
}

// calibMops times a fixed integer spin loop, in million iterations per
// second. It runs before and after each workload: a box that is disturbed
// or throttled shows here before it shows anywhere else.
func calibMops(iters int) float64 {
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	el := time.Since(t0).Seconds()
	if x == 0 {
		panic("unreachable: xorshift never reaches 0")
	}
	return float64(iters) / el / 1e6
}

// runWorkload runs one workload once and returns its result.
func runWorkload(name string, seed uint64, seconds float64, traced, smoke bool, tr *tracer) *result {
	rc := &runCtx{seed: seed, seconds: seconds, traced: traced, smoke: smoke, tr: tr,
		res: newResult(name, seed, traced)}
	calibIters := 50_000_000 // about 100 ms
	if smoke {
		calibIters /= 50
	}
	if tr != nil {
		tr.workload = name
	}
	calib0 := calibMops(calibIters)
	rc.root = tr.begin("bench.workload", 0)
	err := runners[name](rc, name)
	if err == nil && traced {
		sp := tr.begin("bench.probes", rc.root)
		runProbes(rc, sp)
		tr.end(sp)
	}
	tr.end(rc.root)
	if err != nil {
		rc.res.fail(1, "%v", err)
	}
	calib1 := calibMops(calibIters)
	fmt.Printf("calibration loop: %.1f Mops/s before, %.1f after\n", calib0, calib1)
	if traced {
		rc.res.setSummary("bench.calib_mops", summarize([]float64{calib0, calib1}, 2))
	}
	rc.res.finish()
	return rc.res
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all five)")
		seed      = flag.Uint64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", 12, "time each workload's timed phases measure for")
		trace     = flag.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics, spans to .bench_build/; a path: per-layer metrics, spans to that file")
		smoke     = flag.Bool("smoke", false, "shrink every workload to a fraction of a second (self-test only; the numbers mean nothing)")
		out       = flag.String("out", "", "also write the results as JSON to this file (input of -compare)")
		compare   = flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
		updateRef = flag.Bool("update-ref", false, "rewrite ref/sim_digest.txt from this tree; needs -reason")
		reason    = flag.String("reason", "", "with -update-ref: why the simulated results were meant to move")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.json b.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case *updateRef:
		if err := updateSimRef(*reason); err != nil {
			fatal(err.Error())
		}
		return
	}

	names := workloadNames
	if *workload != "" {
		if runners[*workload] == nil {
			fatal(fmt.Sprintf("unknown workload %q (have %v)", *workload, workloadNames))
		}
		names = []string{*workload}
	}
	if *seconds <= 0 {
		fatal("-seconds must be positive")
	}
	traced := *trace != "0" && *trace != ""
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var results []*result
	failed := false
	for _, name := range names {
		r := runWorkload(name, *seed, *seconds, traced, *smoke, tr)
		results = append(results, r)
		failed = failed || !r.Correct
	}
	if traced {
		path := *trace
		if path == "1" {
			path = filepath.Join(".bench_build", "trace.json")
		}
		if err := tr.write(path); err != nil {
			fatal(err.Error())
		}
		tr.printSelfTimes()
		fmt.Printf("%d spans written to %s\n", len(tr.spans), path)
	}
	if *out != "" {
		data, err := json.MarshalIndent(results, "", " ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fatal(err.Error())
		}
	}
	for _, r := range results {
		r.print()
	}
	// Last: one JSON object per workload, the final line being the last
	// workload's (the only one when -workload is given).
	for _, r := range results {
		fmt.Println(r.lastLine())
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(2)
}
