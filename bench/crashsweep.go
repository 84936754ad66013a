package main

import (
	"fmt"
	"time"

	"github.com/gpm-sim/gpm/internal/crash"
	"github.com/gpm-sim/gpm/internal/experiments"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// crashers are the workloads of the sweep: the recovery-study set plus the
// native-persistence ones, as `gpmrecover -sweep` runs them.
func crashers(rc *runCtx) []func() workloads.Crasher {
	all := append(experiments.Crashers(), experiments.NativeCrashers()...)
	if rc.smoke {
		return all[:2]
	}
	return all
}

// sweepPass is one crash campaign over every workload: per workload, its
// wall time and its run records.
type sweepPass struct {
	walls []time.Duration
	runs  [][]crash.RunRecord
}

// runCrashSweep measures crash-sweep: the quick-configuration campaign
// (two crash points, every fault model, one nested re-crash) over every
// recoverable workload, whole passes until the time is used. Every run
// crashes, recovers and verifies; a run whose record carries an error is a
// failure.
func runCrashSweep(rc *runCtx, _ string) error {
	r, cfg, mks := rc.res, workloads.QuickConfig(), crashers(rc)
	cfg.Seed = rc.seed

	// Set-up is what a campaign does before its first crash: build a node
	// per workload and count its device operations to place crash points.
	var setups []float64
	for start := time.Now(); rc.moreSetups(len(setups), start); {
		t0 := time.Now()
		for _, mk := range mks {
			if _, err := crash.CountOps(mk(), workloads.GPM, cfg); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	camp := crash.Campaign{Seed: rc.seed, MaxPoints: 2, RecrashDepth: 1}
	start := time.Now()
	var passes []sweepPass
	for rc.morePasses(len(passes), start) {
		var p sweepPass
		psp := rc.tr.begin("bench.crash_pass", rc.root)
		for _, mk := range mks {
			sp := rc.tr.begin("crash.campaign", psp)
			t0 := time.Now()
			wc, err := camp.Run(mk, cfg)
			p.walls = append(p.walls, time.Since(t0))
			rc.tr.end(sp)
			if err != nil {
				return err
			}
			p.runs = append(p.runs, wc.Runs)
			r.Attempted += int64(len(wc.Runs))
			for _, rec := range wc.Runs {
				if rec.Err != "" {
					r.fail(1, "%s %s %s crash@%d: %s", rec.Workload, rec.Mode, rec.Model, rec.CrashAt, rec.Err)
				}
			}
		}
		rc.tr.end(psp)
		passes = append(passes, p)
	}

	// A unit is one workload's campaign; its run wall is the campaign wall
	// over its run count. The median workload and the slowest one, which
	// sets the tail of a sweep run in parallel, are the latency figures.
	var walls [][]float64
	var runs []int
	for _, recs := range passes[0].runs {
		runs = append(runs, len(recs))
	}
	for _, p := range passes {
		var w []float64
		for _, d := range p.walls {
			w = append(w, d.Seconds())
		}
		walls = append(walls, w)
	}
	st := reducePasses(walls, runs)
	var restore []float64
	for _, recs := range passes[0].runs {
		for _, rec := range recs {
			restore = append(restore, rec.RestoreUS)
		}
	}
	if rc.traced {
		r.set("crash.runs", float64(len(restore)))
		r.set("crash.wall_ms_per_run_p50", st.p50.Median/1e3)
		r.set("crash.wall_ms_per_run_max", st.tail.Median/1e3)
		r.set("crash.restore_sim_us_p50", median(restore))
		return nil
	}
	r.setSummary(mSetup, summarize(setups, int64(len(setups))))
	r.setSummary(mThroughput, st.perSec)
	r.setSummary(mP50, st.p50)
	r.setSummary(mTail, st.tail)
	// The simulated clock of this workload is recovery time: mean simulated
	// restore time over the runs of one pass.
	r.set(mSim, mean(restore))
	fmt.Printf("crash-sweep: %d passes of %d runs, restore_sim_us p50 %.3f\n", len(passes), len(restore), median(restore))
	return nil
}
