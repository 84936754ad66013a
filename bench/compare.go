package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// exactMetrics are simulated-clock figures and work counts: for one seed
// they repeat exactly, so between two runs any difference at all is a
// change of the model.
var exactMetrics = func() map[string]bool {
	m := map[string]bool{
		"workloads.sim_optime_us": true, "workloads.gpm_vs_capfs_geomean_x": true,
		"workloads.fig9_abs_log_err": true, "crash.restore_sim_us_p50": true, "serve.recover_sim_us": true,
	}
	for _, name := range workCounts {
		m[name] = true
	}
	for _, k := range simWorkloadKeys {
		m["workloads.gpm_x."+k] = true
	}
	return m
}()

func resultKey(workload string, traced bool) string {
	return fmt.Sprintf("%s/traced=%v", workload, traced)
}

func loadResults(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]*result)
	for _, r := range rs {
		out[resultKey(r.Workload, r.Traced)] = r
	}
	return out, nil
}

// worseBy is how much worse b is than a as a share of a (negative: better).
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spreadOf is the trials' own min-max width as a share of the median.
func spreadOf(v value) float64 {
	if v.Value == 0 {
		return 0
	}
	return (v.Max - v.Min) / v.Value
}

// exactFor reports whether metric name of workload w repeats exactly for a
// seed: the exact per-layer metrics, and the simulated clock of the two
// fixed-work workloads (on the serve workloads it follows epoch fill and so
// the host, and only carries its bound).
func exactFor(w, name string) bool {
	return exactMetrics[name] || name == mSim && (w == wSim || w == wCrash)
}

// runCompare prints, per workload and metric, how run b differs from run a.
// Metrics that are exact for a seed must be identical when the seeds match.
// Other end-to-end metrics are judged against their bound: "worse" beyond
// it, "unresolved" when either run's own trials spread wider than the bound
// (the difference cannot be told from noise), else "ok". It returns the
// process exit code.
func runCompare(pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err == nil {
		var b map[string]*result
		if b, err = loadResults(pathB); err == nil {
			return compareResults(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareResults(a, b map[string]*result) int {
	code := 0
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			ra, rb := a[resultKey(w, traced)], b[resultKey(w, traced)]
			if ra == nil || rb == nil {
				continue
			}
			fmt.Printf("== %s (%s): failed %d vs %d\n", w, map[bool]string{false: "end-to-end", true: "per-layer"}[traced], ra.Failed, rb.Failed)
			if ra.Failed != 0 || rb.Failed != 0 {
				code = 1
			}
			for _, d := range ra.defs() {
				va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
				if va.N == 0 && vb.N == 0 {
					continue
				}
				worse := worseBy(d, va.Value, vb.Value)
				verdict := ""
				exact := ra.Seed == rb.Seed && exactFor(w, d.Name)
				switch {
				case exact && va.Value != vb.Value:
					verdict = "DIFFERS (exact metric)"
					code = 1
				case exact:
					verdict = "identical"
				case traced:
				case spreadOf(va) > d.Bound || spreadOf(vb) > d.Bound:
					verdict = fmt.Sprintf("unresolved (trial spread %.1f%% / %.1f%% > bound %.0f%%)", 100*spreadOf(va), 100*spreadOf(vb), 100*d.Bound)
				case worse > d.Bound:
					verdict = fmt.Sprintf("WORSE (bound %.0f%%)", 100*d.Bound)
					code = 1
				default:
					verdict = fmt.Sprintf("ok (bound %.0f%%)", 100*d.Bound)
				}
				fmt.Printf("  %-38s %16.4f -> %16.4f %-7s %+7.2f%% worse  %s\n", d.Name, va.Value, vb.Value, d.Unit, 100*worse, verdict)
			}
		}
	}
	return code
}
