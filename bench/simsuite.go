package main

import (
	_ "embed"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	_ "github.com/gpm-sim/gpm/internal/experiments" // registers the GPMbench workloads
	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

//go:embed ref/fig9_paper.tsv
var fig9PaperTSV string

//go:embed ref/sim_digest.txt
var simDigestRef string

const simDigestPath = "bench/ref/sim_digest.txt"

var simModes = []workloads.Mode{workloads.GPM, workloads.CAPfs, workloads.CAPmm}

// simConfig is the configuration every sim-suite run uses: the paper-scale
// defaults, inputs drawn from seed, Workers left at its default.
func simConfig(rc *runCtx) workloads.Config {
	cfg := workloads.DefaultConfig()
	if rc.smoke {
		cfg = workloads.QuickConfig()
	}
	cfg.Seed = rc.seed
	return cfg
}

// simNames are the GPMbench workloads of a pass.
func simNames(rc *runCtx) []string {
	if rc.smoke {
		return []string{"gpKVS", "BLK"}
	}
	return workloads.Names()
}

// simRun is one workloads.Run of a pass.
type simRun struct {
	name string
	mode workloads.Mode
	rep  *workloads.Report
	wall time.Duration
}

// simPass runs every workload under every mode in modes once.
func simPass(rc *runCtx, parent int, cfg workloads.Config, modes []workloads.Mode, extra ...workloads.Option) ([]simRun, error) {
	var runs []simRun
	for _, m := range modes {
		msp := rc.tr.begin(layerOfMode(m, "core")+".pass_"+m.String(), parent)
		for _, name := range simNames(rc) {
			sp := rc.tr.begin(layerOfMode(m, "workloads")+".run_"+simWorkloadKeys[name], msp)
			t0 := time.Now()
			opts := append([]workloads.Option{workloads.WithMode(m), workloads.WithConfig(cfg)}, extra...)
			rep, err := workloads.Run(name, opts...)
			wall := time.Since(t0)
			rc.tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s under %s: %w", name, m, err)
			}
			runs = append(runs, simRun{name, m, rep, wall})
		}
		rc.tr.end(msp)
	}
	return runs, nil
}

// layerOfMode attributes a span to the cap layer when the CPU persists
// (CAP-fs, CAP-mm), else to gpmLayer.
func layerOfMode(m workloads.Mode, gpmLayer string) string {
	if m.UsesCAP() {
		return "cap"
	}
	return gpmLayer
}

// digest condenses every field of every report of a pass. Simulated
// results are a pure function of the seed, so two passes of one run, and
// two commits that did not mean to change the model, must agree.
func digest(runs []simRun) string {
	h := fnv.New64a()
	for _, r := range runs {
		p := r.rep
		fmt.Fprintf(h, "%s|%s|%s|%d|%d|%d|%d|%d|%d|%d|%x|%x|%x\n", p.Workload, p.Class, p.Mode,
			p.OpTime, p.SetupTime, p.TotalTime, p.CkptTime, p.Restore, p.PMBytes, p.Ops,
			math.Float64bits(p.PMWriteBW), math.Float64bits(p.SeqFrac), math.Float64bits(p.AlignedFrac))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fig9Time is the quantity Fig 9 compares: the checkpoint time for the
// checkpointing class, the operation region otherwise.
func fig9Time(r *workloads.Report) float64 {
	if r.Class == "checkpointing" && r.CkptTime > 0 {
		return float64(r.CkptTime)
	}
	return float64(r.OpTime)
}

// simFigures are the simulated-clock results of one pass.
type simFigures struct {
	optimeUS float64            // sum of Report.OpTime over the workloads under GPM
	speedup  map[string]float64 // workload -> CAP-fs time / GPM time (the Fig 9 cell)
	geomean  float64
	absLnErr float64 // mean |ln(measured/paper)| over the workloads the paper tabulates
}

// figures derives them from the runs of one pass. The sums are taken in
// the order of runs, never in map order: float addition is not associative,
// and these figures must repeat to the last bit.
func figures(runs []simRun) (simFigures, error) {
	f := simFigures{speedup: make(map[string]float64)}
	capfs := make(map[string]float64)
	for _, r := range runs {
		if r.mode == workloads.CAPfs {
			capfs[r.name] = fig9Time(r.rep)
		}
	}
	paper, err := parseFig9(fig9PaperTSV)
	if err != nil {
		return f, err
	}
	var lnSum, errSum float64
	var nErr int
	for _, r := range runs {
		if r.mode != workloads.GPM {
			continue
		}
		g := fig9Time(r.rep)
		if g <= 0 || capfs[r.name] <= 0 {
			return f, fmt.Errorf("%s: no simulated time under GPM or CAP-fs", r.name)
		}
		x := capfs[r.name] / g
		f.optimeUS += float64(r.rep.OpTime) / 1e3
		f.speedup[r.name] = x
		lnSum += math.Log(x)
		if p, ok := paper[r.name]; ok {
			errSum += math.Abs(math.Log(x / p))
			nErr++
		}
	}
	f.geomean = math.Exp(lnSum / float64(len(f.speedup)))
	if nErr > 0 {
		f.absLnErr = errSum / float64(nErr)
	}
	return f, nil
}

// parseFig9 reads "workload<TAB>speed-up" rows; '#' starts a comment.
func parseFig9(tsv string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(tsv, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, "\t")
		x, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if !ok || err != nil || x <= 0 {
			return nil, fmt.Errorf("bench: bad row in ref/fig9_paper.tsv: %q", line)
		}
		out[name] = x
	}
	return out, nil
}

// refDigests reads "seed digest sim_optime_us" rows of ref/sim_digest.txt.
func refDigests(txt string) map[uint64][2]string {
	out := make(map[uint64][2]string)
	for _, line := range strings.Split(txt, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || f[0][0] == '#' {
			continue
		}
		if seed, err := strconv.ParseUint(f[0], 10, 64); err == nil {
			out[seed] = [2]string{f[1], f[2]}
		}
	}
	return out
}

// runSimSuite measures sim-suite: every GPMbench workload under GPM, CAP-fs
// and CAP-mm, whole passes until the time is used.
func runSimSuite(rc *runCtx, _ string) error {
	r, cfg := rc.res, simConfig(rc)

	// Set-up is node construction: one simulated node per mode.
	var setups []float64
	for start := time.Now(); rc.moreSetups(len(setups), start); {
		t0 := time.Now()
		for _, m := range simModes {
			workloads.NewEnv(m, cfg)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	start := time.Now()
	var passes [][]simRun
	for rc.morePasses(len(passes), start) {
		sp := rc.tr.begin("bench.sim_pass", rc.root)
		runs, err := simPass(rc, sp, cfg, simModes)
		rc.tr.end(sp)
		if err != nil {
			return err
		}
		passes = append(passes, runs)
	}
	first := passes[0]
	r.Attempted += int64(len(first) * len(passes))
	want := digest(first)
	for i, p := range passes[1:] {
		if got := digest(p); got != want {
			r.fail(int64(len(p)), "pass %d simulated digest %s differs from pass 1 %s: the simulator is not deterministic", i+2, got, want)
		}
	}
	fig, err := figures(first)
	if err != nil {
		return err
	}
	for name, x := range fig.speedup {
		if x <= 1 {
			r.fail(1, "%s: GPM is not faster than CAP-fs (%.2fx)", name, x)
		}
	}
	digestOK := 0.0 // not checked: ref/sim_digest.txt has no row for this seed
	if ref, ok := refDigests(simDigestRef)[rc.seed]; ok && !rc.smoke {
		digestOK = 1
		if ref[0] != want {
			digestOK = -1
			r.fail(int64(len(first)), "simulated digest %s differs from ref/sim_digest.txt %s for seed %d (sim_optime_us %s -> %.3f); if the model was meant to move, run -update-ref",
				want, ref[0], rc.seed, ref[1], fig.optimeUS)
		}
	}

	if !rc.traced {
		// A unit is one run. 33 runs cannot support a p99: the slowest run
		// is the tail, and it bounds a pass however the others are
		// parallelised.
		var walls [][]float64
		for _, p := range passes {
			var w []float64
			for _, run := range p {
				w = append(w, run.wall.Seconds())
			}
			walls = append(walls, w)
		}
		ones := make([]int, len(first))
		for i := range ones {
			ones[i] = 1
		}
		st := reducePasses(walls, ones)
		r.setSummary(mSetup, summarize(setups, int64(len(setups))))
		r.setSummary(mThroughput, st.perSec)
		r.setSummary(mP50, st.p50)
		r.setSummary(mTail, st.tail)
		r.set(mSim, fig.optimeUS/float64(len(fig.speedup)))
		fmt.Printf("sim-suite: %d passes, suite_wall_s %.3f, sim_optime_us %.3f, gpm_vs_capfs_geomean_x %.3f, fig9_abs_log_err %.3f, digest %s (ref: %v)\n",
			len(passes), float64(len(first))/st.perSec.Median, fig.optimeUS, fig.geomean, fig.absLnErr, want, digestOK)
		return nil
	}

	// Traced: one pass, attributed run by run.
	var passWall, gpmWall, capWall float64
	for _, run := range first {
		passWall += run.wall.Seconds()
		if run.mode == workloads.GPM {
			gpmWall += run.wall.Seconds()
		} else {
			capWall += run.wall.Seconds()
		}
	}
	for _, run := range first {
		if run.mode == workloads.GPM {
			r.set("workloads.wall_ms."+simWorkloadKeys[run.name], run.wall.Seconds()*1e3)
			r.set("workloads.gpm_x."+simWorkloadKeys[run.name], fig.speedup[run.name])
		}
	}
	r.set("workloads.suite_wall_s", passWall)
	r.set("workloads.sim_optime_us", fig.optimeUS)
	r.set("workloads.gpm_vs_capfs_geomean_x", fig.geomean)
	r.set("workloads.fig9_abs_log_err", fig.absLnErr)
	r.set("cap.wall_ms", capWall*1e3)
	r.set("bench.sim_digest_ok", digestOK)

	// The GPM third twice more: with a telemetry sink, for the work counts
	// and the cost of the sink itself, and on one worker, for what the
	// in-kernel parallelism buys.
	gpmOnly := []workloads.Mode{workloads.GPM}
	tel := telemetry.New()
	sp := rc.tr.begin("telemetry.gpm_pass", rc.root)
	t0 := time.Now()
	telRuns, err := simPass(rc, sp, cfg, gpmOnly, workloads.WithTelemetry(tel))
	telWall := time.Since(t0).Seconds()
	rc.tr.end(sp)
	if err != nil {
		return err
	}
	r.Attempted += int64(len(telRuns))
	if d, w := digest(telRuns), digest(first[:len(telRuns)]); d != w {
		r.fail(int64(len(telRuns)), "attaching telemetry moved the simulated results (%s vs %s)", d, w)
	}
	counters := tel.Registry().Snapshot().Counters
	for _, name := range workCounts {
		from := name
		if alias, ok := registryName[name]; ok {
			from = alias
		}
		r.set(name, float64(counters[from]))
	}
	r.set("telemetry.overhead_pct", 100*(telWall/gpmWall-1))

	sp = rc.tr.begin("gpu.gpm_pass_workers1", rc.root)
	t0 = time.Now()
	serial, err := simPass(rc, sp, cfg, gpmOnly, workloads.WithWorkers(1))
	serialWall := time.Since(t0).Seconds()
	rc.tr.end(sp)
	if err != nil {
		return err
	}
	r.Attempted += int64(len(serial))
	if d, w := digest(serial), digest(first[:len(serial)]); d != w {
		r.fail(int64(len(serial)), "one worker and the default disagree on the simulated results (%s vs %s)", d, w)
	}
	r.set("gpu.parallel_speedup", serialWall/gpmWall)
	return nil
}

// updateSimRef rewrites ref/sim_digest.txt from this tree for the seeds it
// lists. It refuses without a reason: the digest exists so that host-side
// work cannot move simulated results unnoticed, and only a change that
// meant to move them may re-anchor it.
func updateSimRef(reason string) error {
	if strings.TrimSpace(reason) == "" {
		return fmt.Errorf("-update-ref needs -reason \"why the simulated results were meant to move\"")
	}
	old := refDigests(simDigestRef)
	seeds := make([]uint64, 0, len(old))
	for s := range old {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	var b strings.Builder
	b.WriteString("# Simulated-result digests of sim-suite, one row per seed: seed, FNV-64a over every\n")
	b.WriteString("# Report field of the 33 runs, and sim_optime_us. Written by `go run ./bench -update-ref`.\n")
	fmt.Fprintf(&b, "# Last re-anchored because: %s\n", strings.ReplaceAll(reason, "\n", " "))
	for _, seed := range seeds {
		rc := &runCtx{seed: seed, res: newResult(wSim, seed, false)}
		runs, err := simPass(rc, 0, simConfig(rc), simModes)
		if err != nil {
			return err
		}
		fig, err := figures(runs)
		if err != nil {
			return err
		}
		d := digest(runs)
		fmt.Printf("seed %d: digest %s -> %s, sim_optime_us %s -> %.3f\n", seed, old[seed][0], d, old[seed][1], fig.optimeUS)
		fmt.Fprintf(&b, "%d %s %.3f\n", seed, d, fig.optimeUS)
	}
	return os.WriteFile(simDigestPath, []byte(b.String()), 0o644)
}
