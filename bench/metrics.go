package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric as BENCHMARK.json lists it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen;
// per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Workload names are fixed: later issues refer to them.
const (
	wKVWrite = "kv-write-uniform"
	wKVRead  = "kv-read-hot"
	wTxn     = "txn-rmw-zipf"
	wSim     = "sim-suite"
	wCrash   = "crash-sweep"
)

var workloadNames = []string{wKVWrite, wKVRead, wTxn, wSim, wCrash}

// The end-to-end metrics. Every workload reports every one of them, each in
// the workload's own unit of work (a KV request, a transaction, a simulator
// run, a crash-recover run); README.md has the table.
const (
	mSetup      = "setup_s"
	mThroughput = "units_per_s"
	mP50        = "unit_p50_us"
	mTail       = "unit_tail_us"
	mSim        = "sim_us_per_unit"
)

// The host-clock bounds are as wide as the contract allows because the
// reference box is: its speed drifts by up to 20% over tens of minutes
// whatever runs on it (README.md, "What is gated"). The simulated clock
// repeats exactly on the fixed-work workloads and within 2% on the serve
// ones, where it still follows epoch fill and so, weakly, host speed.
var endToEnd = []metricDef{
	{mSetup, "s", "lower", 0.25},
	{mThroughput, "1/s", "higher", 0.25},
	{mP50, "us", "lower", 0.25},
	{mTail, "us", "lower", 0.25},
	{mSim, "us", "lower", 0.10},
}

// simWorkloadKeys are the GPMbench workload names as metric-name suffixes
// (a metric name may not hold parentheses or colons).
var simWorkloadKeys = map[string]string{
	"gpKVS": "gpKVS", "gpKVS(95:5)": "gpKVS-95-5", "gpDB(I)": "gpDB-I", "gpDB(U)": "gpDB-U",
	"DNN": "DNN", "CFD": "CFD", "BLK": "BLK", "HS": "HS", "BFS": "BFS", "SRAD": "SRAD", "PS": "PS",
}

// workCounts are the per-layer work-count metrics. Each totals the
// telemetry registry counter of the same name, but for two that this
// benchmark files under the package that owns them.
var workCounts = []string{
	"gpu.kernels", "gpu.fences", "gpu.pm_write_bytes", "pcie.txns", "pcie.bytes_up",
	"pmem.write_txns", "pmem.persist_lines", "pmem.persist_bytes", "llc.flushed_lines", "llc.evictions",
	"core.persist_epochs", "core.hcl_inserts",
}

var registryName = map[string]string{"core.persist_epochs": "gpm.persist_epochs", "core.hcl_inserts": "log.hcl.inserts"}

// perLayer is built once: the fixed rows plus one wall/speed-up pair per
// GPMbench workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(unit string, names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: "lower"})
		}
		return
	}
	higher := func(unit string, names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: "higher"})
		}
		return
	}
	var d []metricDef
	add := func(m []metricDef) { d = append(d, m...) }

	// serve, from sampled request traces, the registry, MemStats and the driver.
	add(lower("us", "serve.t_admit_us", "serve.t_seal_us", "serve.t_stage_us", "serve.t_kernel_us", "serve.t_persist_us", "serve.t_commit_us"))
	add(lower("count", "serve.epochs"))
	add(higher("ops", "serve.epoch_fill_mean"))
	add(higher("ratio", "serve.squash_ratio", "serve.cache_hit_ratio"))
	add(lower("us", "serve.queue_wait_us_p50", "serve.epoch_lag_us_p50", "serve.batch_sim_us_mean", "serve.wall_per_epoch_us"))
	add(lower("1/op", "serve.allocs_per_op"))
	add(lower("B/op", "serve.alloc_bytes_per_op"))
	add(higher("1/s", "serve.sat_ops_per_s", "serve.sat_ops_per_s_traced"))
	add(lower("us", "serve.open_p50_us", "serve.open_p99_us", "serve.open_p999_us"))
	add(lower("ratio", "serve.txn_abort_ratio", "serve.txn_attempts_per_commit"))
	// serve back end alone: Shard.Apply without TCP or batcher.
	add(lower("ns/op", "serve.apply_ns_per_op_fill1", "serve.apply_ns_per_op_fill16", "serve.apply_ns_per_op_fill256"))
	add(lower("ratio", "serve.apply_stage_share", "serve.apply_kernel_share", "serve.apply_persist_share"))
	add(lower("count", "serve.apply_allocs_fill16"))
	add(lower("ms", "serve.restart_wall_ms"))
	add(lower("us", "serve.recover_sim_us"))
	// gpu engine primitives.
	add(lower("ns", "gpu.launch_empty_ns", "gpu.thread_ns_empty", "gpu.store_pm_fence_ns", "gpu.store_hbm_ns", "gpu.syncblock_ns", "gpu.atomic_ns"))
	add(lower("count", "gpu.allocs_per_launch"))
	add(higher("x", "gpu.parallel_speedup"))
	// work counts over the GPM third of sim-suite: exact for a given seed.
	add(lower("count", workCounts...))
	add(lower("ns", "memsys.write_gpu_pm_ns_8B", "memsys.write_gpu_pm_ns_128B", "memsys.read_ns", "memsys.persist_lines_ns"))
	add(lower("ns", "cache.cachelines_drain_ns_per_line", "cache.flush_ns_per_line"))
	add(lower("ns", "pmem.write_seq_ns_64B", "pmem.persist_line_ns", "pmem.crash_clean_ns_per_line", "pmem.crash_torn_ns_per_line"))
	add(lower("ns", "core.hcl_insert_ns"))
	add(lower("ns/KiB", "core.checkpoint_ns_per_kb"))
	// sim-suite, per GPMbench workload and in total.
	keys := make([]string, 0, len(simWorkloadKeys))
	for _, k := range simWorkloadKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		add(lower("ms", "workloads.wall_ms."+k))
	}
	for _, k := range keys {
		add(higher("x", "workloads.gpm_x."+k))
	}
	add(lower("s", "workloads.suite_wall_s"))
	add(lower("us", "workloads.sim_optime_us"))
	add(higher("x", "workloads.gpm_vs_capfs_geomean_x"))
	add(lower("ratio", "workloads.fig9_abs_log_err"))
	add(lower("ms", "cap.wall_ms"))
	add(lower("count", "crash.runs"))
	add(lower("ms", "crash.wall_ms_per_run_p50", "crash.wall_ms_per_run_max"))
	add(lower("us", "crash.restore_sim_us_p50"))
	add(lower("%", "obs.overhead_pct", "telemetry.overhead_pct"))
	// validity of the run, not of the program.
	add(higher("Mops/s", "bench.calib_mops"))
	add(lower("us", "bench.gen_lag_p50_us", "bench.gen_lag_p99_us"))
	add(lower("1/op", "bench.gen_allocs_per_op"))
	add(higher("flag", "bench.sim_digest_ok"))
	return d
}

// value is one measured metric. Min, Max and N describe the trials behind
// a median; a single measurement has Min == Max == Value.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int64   `json:"n"`
}

// result is one run of one workload.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Notes     []string         `json:"notes,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

func newResult(workload string, seed uint64, traced bool) *result {
	return &result{Workload: workload, Seed: seed, Traced: traced, Metrics: make(map[string]value)}
}

// fail counts n failed operations and keeps the first few reasons.
func (r *result) fail(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Notes) < 8 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: metric " + name + " is not declared")
}

func (r *result) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// set records a single measurement.
func (r *result) set(name string, v float64) {
	r.record(name, value{Value: v, Min: v, Max: v, N: 1})
}

// setSummary records a median over trials.
func (r *result) setSummary(name string, s summary) {
	r.record(name, value{Value: s.Median, Min: s.Min, Max: s.Max, N: s.Samples})
}

// record stores v under name. A figure that is not a finite number — a
// ratio over zero replies after a transport failure, say — reads 0 and
// counts as a failure: the run that most needs reporting must still print.
func (r *result) record(name string, v value) {
	v.Unit = unitOf(r.defs(), name)
	for _, x := range []float64{v.Value, v.Min, v.Max} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			r.fail(1, "%s is not a finite number (%v): nothing to divide by", name, x)
			v.Value, v.Min, v.Max = 0, 0, 0
			break
		}
	}
	r.Metrics[name] = v
}

// finish fills in what the run did not measure — a per-layer metric that
// belongs to another workload reads 0 — and settles correctness. An
// end-to-end metric must always be measured.
func (r *result) finish() {
	for _, d := range r.defs() {
		if _, ok := r.Metrics[d.Name]; ok {
			continue
		}
		if !r.Traced {
			r.fail(1, "end-to-end metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = value{Unit: d.Unit}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.Correct = r.Failed == 0
}

// lastLine is the one-line JSON object the run ends with.
func (r *result) lastLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	for _, d := range r.defs() {
		v := r.Metrics[d.Name]
		out.Metrics[d.Name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil { // record keeps NaN and Inf out, so nothing here can fail
		return `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`
	}
	return string(b)
}

// print lists every metric of the run by name with its unit, the trials'
// spread, the sample count and, for end-to-end metrics, the bound.
func (r *result) print() {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Printf("== %s seed %d: %s metrics\n", r.Workload, r.Seed, kind)
	for _, d := range r.defs() {
		v, ok := r.Metrics[d.Name]
		if !ok || (r.Traced && v.N == 0) {
			continue
		}
		line := fmt.Sprintf("  %-38s %16.4f %-7s", d.Name, v.Value, v.Unit)
		if v.Min != v.Max {
			line += fmt.Sprintf(" [min %.4f max %.4f]", v.Min, v.Max)
		}
		line += fmt.Sprintf(" n=%d", v.N)
		if !r.Traced {
			line += fmt.Sprintf(" bound %.0f%%", d.Bound*100)
		}
		fmt.Println(line)
	}
	fmt.Printf("  attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, n := range r.Notes {
		fmt.Println("  FAIL:", n)
	}
}
