// Command gpmbench regenerates the paper's evaluation tables and figures
// (§6) as tab-separated reports, mirroring the artifact's `make figure_9`
// style interface (Appendix A):
//
//	gpmbench -experiment all            # everything, reports/ directory
//	gpmbench -experiment figure9        # one experiment to stdout + file
//	gpmbench -experiment table5 -quick  # smaller inputs, faster
//
// Experiments: figure1a figure1b figure3 figure9 figure10 figure11a
// figure11b figure12 table4 table5 dnnfreq optane breakdown all.
//
// Observability (see README "Observability"): -trace out.json writes a
// Chrome trace-event file of every simulated run (load it in Perfetto or
// chrome://tracing), -metrics out.tsv dumps the cross-subsystem metrics
// registry, and -timebreakdown out.tsv writes the per-run span time
// breakdown (the Fig 12-style table). All timestamps are simulated time.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/gpm-sim/gpm/internal/experiments"
	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// experimentNames are the valid -experiment values, kept alongside the
// runner map in main (newExperimentRunners) — validation and dispatch must
// agree, so both derive from the same table.
func experimentRunners(cfg workloads.Config) map[string]func() (*experiments.Table, error) {
	return map[string]func() (*experiments.Table, error){
		"figure1a":  func() (*experiments.Table, error) { return experiments.Figure1a(cfg) },
		"figure1b":  func() (*experiments.Table, error) { return experiments.Figure1b(cfg) },
		"figure3":   func() (*experiments.Table, error) { return experiments.Figure3(8 << 20) },
		"figure9":   func() (*experiments.Table, error) { return experiments.Figure9(cfg) },
		"figure10":  func() (*experiments.Table, error) { return experiments.Figure10(cfg) },
		"figure11a": func() (*experiments.Table, error) { return experiments.Figure11a(cfg) },
		"figure11b": func() (*experiments.Table, error) { return experiments.Figure11b(32768) },
		"figure12":  func() (*experiments.Table, error) { return experiments.Figure12(cfg) },
		"table4":    func() (*experiments.Table, error) { return experiments.Table4(cfg) },
		"table5":    func() (*experiments.Table, error) { return experiments.Table5(cfg) },
		"dnnfreq":   func() (*experiments.Table, error) { return experiments.DNNFrequency(cfg) },
		"optane":    func() (*experiments.Table, error) { return experiments.OptanePattern(8 << 20) },
		"breakdown": func() (*experiments.Table, error) { return experiments.Breakdown(cfg) },
		"cpudb":     func() (*experiments.Table, error) { return experiments.CPUDatabase(cfg) },
		"ckptfreq":  func() (*experiments.Table, error) { return experiments.CheckpointFrequency(cfg) },
	}
}

// validateFlags rejects flag values that previously fell back to defaults
// silently (or crashed deep inside a run): experiment must name a known
// experiment or "all".
func validateFlags(experiment string, known []string) error {
	if experiment == "all" {
		return nil
	}
	for _, n := range known {
		if n == experiment {
			return nil
		}
	}
	sorted := append([]string(nil), known...)
	sort.Strings(sorted)
	return fmt.Errorf("unknown experiment %q (valid: %s, all)", experiment, strings.Join(sorted, " "))
}

func main() {
	var (
		name      = flag.String("experiment", "all", "experiment to run (figure1a..figure12, table4, table5, dnnfreq, optane, all)")
		out       = flag.String("out", "reports", "output directory for TSV reports")
		quick     = flag.Bool("quick", false, "use the smaller test-scale configuration")
		seed      = flag.Uint64("seed", 42, "workload generator seed")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of all runs to this file")
		metricsTo = flag.String("metrics", "", "write the telemetry metrics registry as TSV to this file")
		brkTo     = flag.String("timebreakdown", "", "write the per-run span time breakdown as TSV to this file")
	)
	flag.Parse()

	cfg := workloads.DefaultConfig()
	if *quick {
		cfg = workloads.QuickConfig()
	}
	cfg.Seed = *seed

	var tel *telemetry.Telemetry
	if *traceOut != "" || *metricsTo != "" || *brkTo != "" {
		tel = telemetry.New()
		cfg.Telemetry = tel
	}

	runners := experimentRunners(cfg)
	known := make([]string, 0, len(runners))
	for n := range runners {
		known = append(known, n)
	}
	if err := validateFlags(*name, known); err != nil {
		usage(err)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	var names []string
	if *name == "all" {
		for n := range runners {
			names = append(names, n)
		}
		sort.Strings(names)
	} else {
		names = []string{*name}
	}

	for _, n := range names {
		start := time.Now()
		tab, err := runners[n]()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", n, err))
		}
		path := filepath.Join(*out, "out_"+n+".txt")
		if err := os.WriteFile(path, []byte(tab.TSV()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("== %s (%.1fs) -> %s\n%s\n", n, time.Since(start).Seconds(), path, tab.TSV())
	}

	if tel != nil {
		if *traceOut != "" {
			if err := os.WriteFile(*traceOut, tel.Trace.ChromeTrace(), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("trace: %d spans over %s of simulated time -> %s\n",
				tel.Trace.Len(), tel.Trace.SimTotal().Format(1), *traceOut)
		}
		if *metricsTo != "" {
			if err := os.WriteFile(*metricsTo, []byte(tel.Metrics.TSV()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("metrics -> %s\n", *metricsTo)
		}
		if *brkTo != "" {
			if err := os.WriteFile(*brkTo, []byte(tel.Trace.BreakdownTSV()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("time breakdown -> %s\n", *brkTo)
		}
	}
}

// usage reports a flag-validation error with the full flag help and exits 2
// (distinct from exit 1, a run that executed and failed).
func usage(err error) {
	fmt.Fprintln(os.Stderr, "gpmbench:", err)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpmbench:", err)
	os.Exit(1)
}
