// Command gpmchaos drives the serve-level chaos harness: deterministic
// crash campaigns over the whole serving stack — network fault injection,
// exactly-once retries, and shard power failures — with shrinking and
// single-tuple replay.
//
//	gpmchaos -serve                          # full sweep: every mode x net
//	                                         # schedule x PM fault model x
//	                                         # crash point x apply index
//	gpmchaos -serve -json                    # machine-readable report
//	gpmchaos -serve -schedule chaos          # one network schedule only
//	gpmchaos -serve -txn                     # + snapshot-isolation txn
//	                                         # clients and SI invariants
//	gpmchaos -serve -break-dedup             # negative control: MUST fail
//	gpmchaos -serve -txn -break-si           # negative control: lost
//	                                         # updates MUST be caught
//	gpmchaos -serve -mode GPM -schedule clean -model clean \
//	    -point before-reply -apply-index 2 -ops 32 -seed 9   # replay one
//	                                         # shrunk failure tuple
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"github.com/gpm-sim/gpm/internal/crash"
	"github.com/gpm-sim/gpm/internal/faultnet"
	"github.com/gpm-sim/gpm/internal/pmem"
	"github.com/gpm-sim/gpm/internal/serve"
	"github.com/gpm-sim/gpm/internal/workloads"
)

func main() {
	var (
		serveStack = flag.Bool("serve", false, "chaos the serving stack (required; the only chaos surface today)")
		seed       = flag.Uint64("seed", 7, "campaign seed; equal seeds replay identically")
		ops        = flag.Int64("ops", 0, "client ops per run (0 = campaign default)")
		conns      = flag.Int("conns", 0, "client connections per run (0 = campaign default)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent runs (1 = serial reference; report identical for every value)")
		depth      = flag.Int("recrash-depth", 0, "nested power failures injected during each recovery")
		shrink     = flag.Bool("shrink", true, "shrink the first failure to a minimal replayable tuple")
		asJSON     = flag.Bool("json", false, "emit the campaign report as JSON")
		breakDedup = flag.Bool("break-dedup", false, "negative control: disable PM dedup persistence (the campaign MUST catch it)")
		txn        = flag.Bool("txn", false, "also drive snapshot-isolation transaction clients each run and judge the SI invariants")
		txns       = flag.Int64("txns", 0, "transactions per run (0 = campaign default; requires -txn)")
		breakSI    = flag.Bool("break-si", false, "negative control: disable commit conflict validation (the campaign MUST catch lost updates; requires -txn)")

		// Axis filters; also the replay coordinates when -point is given.
		modeSpec  = flag.String("mode", "", "persistence mode(s), comma-separated (empty = campaign default)")
		schedSpec = flag.String("schedule", "", "network fault schedule(s), comma-separated (empty = all; valid: "+strings.Join(faultnet.ScheduleNames(), ", ")+")")
		modelSpec = flag.String("model", "", "PM fault model(s), comma-separated (empty = all)")
		pointSpec = flag.String("point", "", "crash point; with -apply-index this replays ONE tuple instead of sweeping")
		applyIdx  = flag.Int64("apply-index", 0, "1-based mutation-apply the crash fires on (replay mode; 0 = sweep)")
	)
	flag.Parse()

	if !*serveStack {
		fmt.Fprintln(os.Stderr, "gpmchaos: -serve is required (the serving stack is the only chaos surface)")
		flag.Usage()
		os.Exit(2)
	}
	if !*txn && (*breakSI || *txns != 0) {
		fmt.Fprintln(os.Stderr, "gpmchaos: -break-si/-txns require -txn")
		flag.Usage()
		os.Exit(2)
	}
	if *workers < 1 || *workers > crash.MaxWorkers {
		fmt.Fprintf(os.Stderr, "gpmchaos: -workers must be in [1, %d], got %d (1 = serial reference; default = GOMAXPROCS)\n", crash.MaxWorkers, *workers)
		flag.Usage()
		os.Exit(2)
	}

	c := &crash.ServeCampaign{
		Seed:         *seed,
		Ops:          *ops,
		Conns:        *conns,
		Workers:      *workers,
		RecrashDepth: *depth,
		BreakDedup:   *breakDedup,
		Txn:          *txn,
		Txns:         *txns,
		BreakSI:      *breakSI,
	}
	var err error
	if c.Modes, err = parseModes(*modeSpec); err != nil {
		fail(err)
	}
	if c.Schedules, err = parseSchedules(*schedSpec); err != nil {
		fail(err)
	}
	if c.Models, err = parseModels(*modelSpec); err != nil {
		fail(err)
	}

	if *pointSpec != "" || *applyIdx > 0 {
		os.Exit(replayOne(c, *modeSpec, *schedSpec, *modelSpec, *pointSpec, *applyIdx, *ops, *breakDedup))
	}
	os.Exit(sweep(c, *shrink, *asJSON))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gpmchaos:", err)
	os.Exit(2)
}

// parseModes resolves a comma-separated mode list; empty means default.
func parseModes(spec string) ([]workloads.Mode, error) {
	if spec == "" {
		return nil, nil
	}
	var out []workloads.Mode
	for _, name := range strings.Split(spec, ",") {
		m, err := serve.ModeByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// parseSchedules resolves a comma-separated schedule list; empty means all.
func parseSchedules(spec string) ([]faultnet.Schedule, error) {
	if spec == "" {
		return nil, nil
	}
	var out []faultnet.Schedule
	for _, name := range strings.Split(spec, ",") {
		s, err := faultnet.ScheduleByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// parseModels resolves a comma-separated fault-model list; empty means all.
func parseModels(spec string) ([]pmem.FaultModel, error) {
	if spec == "" {
		return nil, nil
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

// sweep runs the campaign and prints either the human summary or the JSON
// report. Exit 0 = every invariant held; 1 = failures (with the shrunk
// replay command when shrinking found one); 2 = the harness itself broke.
func sweep(c *crash.ServeCampaign, shrink, asJSON bool) int {
	rep, err := c.Run(shrink)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpmchaos:", err)
		return 2
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "gpmchaos:", err)
			return 2
		}
	} else {
		fired, notReached := 0, 0
		for _, r := range rep.Runs {
			if r.PlanFired {
				fired++
			}
			switch r.Verdict {
			case crash.ServeVerdictNotReached:
				notReached++
			case crash.ServeVerdictFail:
				fmt.Printf("FAIL %s/%s/%s/%s@%d seed=%d: %s\n",
					r.Mode, r.Schedule, r.Model, r.Point, r.ApplyIndex, r.FaultSeed, r.Err)
			}
		}
		fmt.Printf("\nserve campaign: %d runs, %d crash plans fired, %d not reached, %d failures (identity %s)\n",
			len(rep.Runs), fired, notReached, rep.Failures, rep.Identity)
		if rep.Shrunk != nil {
			fmt.Printf("shrunk: %s\n  replay: %s\n", rep.Shrunk.Err, rep.Shrunk.Replay)
		}
	}
	if rep.Failures > 0 {
		return 1
	}
	return 0
}

// replayOne re-executes a single shrunk tuple, the coordinates pasted from
// a report's Replay line.
func replayOne(c *crash.ServeCampaign, mode, sched, model, point string, idx, ops int64, breakDedup bool) int {
	for name, v := range map[string]string{"-mode": mode, "-schedule": sched, "-model": model, "-point": point} {
		if v == "" {
			fmt.Fprintf(os.Stderr, "gpmchaos: replay needs %s (plus -apply-index)\n", name)
			return 2
		}
		if strings.Contains(v, ",") {
			fmt.Fprintf(os.Stderr, "gpmchaos: replay takes exactly one %s, got %q\n", name, v)
			return 2
		}
	}
	if idx < 1 {
		fmt.Fprintln(os.Stderr, "gpmchaos: replay needs -apply-index >= 1")
		return 2
	}
	if ops == 0 {
		ops = 32
	}
	rec, err := c.ReplayServe(&crash.ServeShrunk{
		Mode: mode, Schedule: sched, Model: model, Point: point,
		ApplyIndex: idx, Ops: ops, Seed: c.Seed, BreakDedup: breakDedup,
		Txn: c.Txn, BreakSI: c.BreakSI,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpmchaos:", err)
		return 2
	}
	switch rec.Verdict {
	case crash.ServeVerdictFail:
		fmt.Printf("FAIL %s/%s/%s/%s@%d seed=%d: %s\n",
			rec.Mode, rec.Schedule, rec.Model, rec.Point, rec.ApplyIndex, rec.FaultSeed, rec.Err)
		return 1
	case crash.ServeVerdictNotReached:
		fmt.Printf("warn %s/%s/%s/%s@%d: crash plan never fired (invariants held)\n",
			rec.Mode, rec.Schedule, rec.Model, rec.Point, rec.ApplyIndex)
		return 0
	default:
		fmt.Printf("ok   %s/%s/%s/%s@%d seed=%d: invariants held through crash and recovery\n",
			rec.Mode, rec.Schedule, rec.Model, rec.Point, rec.ApplyIndex, rec.FaultSeed)
		return 0
	}
}
