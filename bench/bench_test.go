package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"github.com/gpm-sim/gpm/internal/sim"
	"github.com/gpm-sim/gpm/internal/workloads"
)

func testKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	return keys
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	keys := testKeys(2048)
	for _, m := range []mix{kvSpecs[wKVWrite].mix, kvSpecs[wKVRead].mix} {
		a := newStream(7, 0, keys, m).hash(5000)
		if b := newStream(7, 0, keys, m).hash(5000); a != b {
			t.Errorf("mix %+v: same seed gave op-stream hashes %x and %x", m, a, b)
		}
		if b := newStream(8, 0, keys, m).hash(5000); a == b {
			t.Errorf("mix %+v: seeds 7 and 8 gave the same op stream", m)
		}
		if b := newStream(7, 1, keys, m).hash(5000); a == b {
			t.Errorf("mix %+v: connections 0 and 1 gave the same op stream", m)
		}
	}
}

func TestMixFractions(t *testing.T) {
	s := newStream(1, 0, testKeys(2048), kvSpecs[wKVRead].mix)
	var gets, hot int
	const n = 100000
	for i := uint64(0); i < n; i++ {
		kind, idx, val := s.op(i)
		if kind == opGet {
			gets++
		} else if val == 0 {
			t.Fatalf("op %d: SET of value 0, which the protocol rejects", i)
		}
		if idx < 128 {
			hot++
		}
	}
	if f := float64(gets) / n; f < 0.985 || f > 0.995 {
		t.Errorf("GET fraction %.3f, want 0.99", f)
	}
	// zipf 0.99 over 2048 keys puts about two thirds of the draws on the
	// 128 most popular; uniform would put 6% there.
	if f := float64(hot) / n; f < 0.55 {
		t.Errorf("only %.2f of the draws fall on the 128 hottest keys: not zipfian", f)
	}
}

func TestPickKeysPrivateSlotsAndOwners(t *testing.T) {
	slotOf := func(key uint64) (int, int) { return int(key % 2), int(key>>1) % 500 }
	owned, err := pickKeys(3, 400, 2, slotOf)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]int]bool)
	for c, keys := range owned {
		if len(keys) != 200 {
			t.Errorf("connection %d owns %d keys, want 200", c, len(keys))
		}
		for _, k := range keys {
			if int((k>>1)%2) != c {
				t.Errorf("key %d is owned by connection %d but routes to %d", k, c, (k>>1)%2)
			}
			sh, slot := slotOf(k)
			if seen[[2]int{sh, slot}] {
				t.Errorf("key %d shares slot %d/%d with another key", k, sh, slot)
			}
			seen[[2]int{sh, slot}] = true
		}
	}
	if _, err := pickKeys(3, 2000, 2, slotOf); err == nil {
		t.Error("2000 keys cannot have private slots among 1000, but pickKeys found some")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if v, ok := percentile(sorted, 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %d, %v; want 990 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(sorted, 0.999); ok {
		t.Error("p99.9 of 1000 samples has one sample beyond it and must not be reported")
	}
	if _, ok := percentile(sorted[:999], 0.99); ok {
		t.Error("p99 of 999 samples has nine samples beyond it and must not be reported")
	}
	if v, ok := percentile(sorted[:5], 0.5); !ok || v != 3 {
		t.Errorf("median of 1..5 = %d, %v; the median needs no samples beyond it", v, ok)
	}
	s := summarize([]float64{3, 1, 2}, 42)
	if s.Median != 2 || s.Min != 1 || s.Max != 3 || s.Trials != 3 || s.Samples != 42 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestRawDriverIsAllocationFree(t *testing.T) {
	a, err := generatorAllocsPerOp(20000)
	if err != nil {
		t.Fatal(err)
	}
	// Generator and echo server together; a handful of runtime allocations
	// (timers, goroutine stacks) over 20000 requests is the floor.
	if a > 0.01 {
		t.Errorf("%.4f allocations per request, want none in steady state", a)
	}
}

// An open loop must charge a server stall to every request that was due
// while it lasted — not only to the one request that happened to be in
// flight, as a closed loop that waits for its reply would.
func TestOpenLoopChargesAStallToEveryRequestDueDuringIt(t *testing.T) {
	const (
		rate  = 2000.0
		stall = 50 * time.Millisecond
	)
	e, err := startEcho(200, stall) // stalls 100 ms into the schedule
	if err != nil {
		t.Fatal(err)
	}
	defer e.stop()
	keys := testKeys(64)
	c, err := dialConn(e.addr(), keys)
	if err != nil {
		t.Fatal(err)
	}
	defer c.c.Close()
	n, _ := c.open(setOnly(keys).op, 0, rate, 400*time.Millisecond)
	if c.failed != 0 || len(c.lat) != int(n) {
		t.Fatalf("%d of %d requests answered, %d failed (%s)", len(c.lat), n, c.failed, c.firstBad)
	}
	if len(c.lag) != int(n) {
		t.Fatalf("generator lateness recorded for %d of %d requests", len(c.lag), n)
	}
	late := 0
	var worst time.Duration
	for _, l := range c.lat {
		d := time.Duration(l)
		if d > worst {
			worst = d
		}
		if d >= 10*time.Millisecond {
			late++
		}
	}
	// 100 requests are due during the 50 ms stall; those due in its first
	// 40 ms wait at least 10 ms. Scheduling jitter may shave a few.
	if late < 60 {
		t.Errorf("%d requests waited 10 ms or more; a 50 ms stall at %v requests/s must delay about 80", late, rate)
	}
	if worst < 45*time.Millisecond {
		t.Errorf("worst latency %v: the request due when the stall began must wait it out", worst)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.zero.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("bench.root", 0, at(0), at(100))
	tr.add("serve.a", root, at(10), at(40))
	tr.add("serve.b", root, at(30), at(60)) // overlaps a: the union covers 10..60
	self := tr.selfTimes()
	if got := self["bench"]; got < 49999 || got > 50001 {
		t.Errorf("bench self time %.0f µs, want 50000", got)
	}
	if got := self["serve"]; got < 59999 || got > 60001 {
		t.Errorf("serve self time %.0f µs, want 60000", got)
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go are
// what the program prints. They must say the same.
func TestManifestMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []metricDef `json:"workloads"` // only Name is read
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d implemented", len(m.Workloads), len(workloadNames))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d in the program", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestFig9ReferenceCoversEveryWorkload(t *testing.T) {
	paper, err := parseFig9(fig9PaperTSV)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads.Names() {
		if _, ok := paper[name]; !ok {
			t.Errorf("ref/fig9_paper.tsv has no row for %s", name)
		}
		if _, ok := simWorkloadKeys[name]; !ok {
			t.Errorf("no metric-name key for workload %s", name)
		}
	}
	if len(paper) != len(workloads.Names()) {
		t.Errorf("%d reference rows for %d workloads", len(paper), len(workloads.Names()))
	}
}

// The simulated figures are compared bit for bit between runs, so they may
// not depend on map order: sums of floats differ in the last bits with the
// order of their terms.
func TestFiguresRepeatToTheLastBit(t *testing.T) {
	var runs []simRun
	for _, m := range simModes {
		for i, name := range workloads.Names() {
			ns := int64(1e3*math.Pow(7.3, float64(i%6))) + int64(i)
			if m != workloads.GPM {
				ns = ns*int64(3+i) + 1
			}
			runs = append(runs, simRun{name: name, mode: m, rep: &workloads.Report{OpTime: sim.Duration(ns)}})
		}
	}
	want, err := figures(runs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		got, _ := figures(runs)
		if math.Float64bits(got.geomean) != math.Float64bits(want.geomean) ||
			math.Float64bits(got.absLnErr) != math.Float64bits(want.absLnErr) ||
			math.Float64bits(got.optimeUS) != math.Float64bits(want.optimeUS) {
			t.Fatalf("call %d: geomean %x, error %x, op time %x; first call %x, %x, %x", i,
				math.Float64bits(got.geomean), math.Float64bits(got.absLnErr), math.Float64bits(got.optimeUS),
				math.Float64bits(want.geomean), math.Float64bits(want.absLnErr), math.Float64bits(want.optimeUS))
		}
	}
}

// A run with no good reply divides by zero; it must still print its result,
// with the figure at 0 and counted as a failure.
func TestAFigureOverZeroRepliesIsAFailureNotAPanic(t *testing.T) {
	r := newResult(wKVWrite, 1, false)
	for _, d := range endToEnd {
		r.set(d.Name, 1)
	}
	var simUS, replies float64
	r.set(mSim, simUS/replies)
	r.setSummary(mP50, summary{Median: 1, Min: 1, Max: math.Inf(1), Samples: 1})
	r.finish()
	if r.Correct || r.Failed != 2 || r.Metrics[mSim].Value != 0 || r.Metrics[mP50].Max != 0 {
		t.Errorf("correct %v, failed %d, %s = %+v, %s = %+v", r.Correct, r.Failed, mSim, r.Metrics[mSim], mP50, r.Metrics[mP50])
	}
	var last struct{ Correct bool }
	if err := json.Unmarshal([]byte(r.lastLine()), &last); err != nil || last.Correct {
		t.Errorf("last line %q: %v", r.lastLine(), err)
	}
}

func TestUpdateRefRefusesWithoutAReason(t *testing.T) {
	if err := updateSimRef("  "); err == nil {
		t.Error("-update-ref ran without a reason")
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(thr, min, max float64) map[string]*result {
		r := newResult(wSim, 1, false)
		for _, d := range endToEnd {
			r.Metrics[d.Name] = value{Value: 1, Unit: d.Unit, Min: 1, Max: 1, N: 1}
		}
		r.Metrics[mThroughput] = value{Value: thr, Unit: "1/s", Min: min, Max: max, N: 1}
		r.finish()
		return map[string]*result{resultKey(wSim, false): r}
	}
	b := 100 * endToEnd[1].Bound // the throughput bound, in percent
	if endToEnd[1].Name != mThroughput {
		t.Fatal("endToEnd[1] is not the throughput metric")
	}
	if code := compareResults(mk(100, 99, 101), mk(100-b/2, 99-b/2, 101-b/2)); code != 0 {
		t.Error("a throughput drop of half the bound was flagged")
	}
	if code := compareResults(mk(100, 99, 101), mk(100-2*b, 99-2*b, 101-2*b)); code != 1 {
		t.Error("a throughput drop of twice the bound passed")
	}
	if code := compareResults(mk(100, 100-2*b, 100+2*b), mk(100-2*b, 99-2*b, 101-2*b)); code != 0 {
		t.Error("a run whose own trials spread four times the bound cannot resolve a difference of twice the bound, yet it was called worse")
	}
	// sim-suite's simulated clock is exact for a seed: with equal seeds any
	// difference is a model change, however far inside the bound.
	moved := mk(100, 99, 101)
	v := moved[resultKey(wSim, false)].Metrics[mSim]
	v.Value *= 1.001
	moved[resultKey(wSim, false)].Metrics[mSim] = v
	if code := compareResults(mk(100, 99, 101), moved); code != 1 {
		t.Error("sim-suite's simulated time moved by 0.1% between two runs of one seed and passed")
	}
	moved[resultKey(wSim, false)].Seed = 2
	if code := compareResults(mk(100, 99, 101), moved); code != 0 {
		t.Error("simulated times of two different seeds were required to be identical")
	}
}

// Every workload, end to end and traced, shrunk to a fraction of a second:
// the outputs must verify, and every declared metric must be printed.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var tr *tracer
		seconds := 0.5
		if traced {
			tr = newTracer()
			seconds = 0.3 // two servers per KV workload instead of one
		}
		for _, name := range workloadNames {
			r := runWorkload(name, 5, seconds, traced, true, tr)
			if !r.Correct || r.Failed != 0 {
				t.Errorf("%s traced=%v: %d failures: %v", name, traced, r.Failed, r.Notes)
			}
			var last struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(r.lastLine()), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", name, err)
			}
			if len(last.Metrics) != len(r.defs()) || last.Attempted < 1 {
				t.Errorf("%s traced=%v: %d metrics on the last line, want %d; attempted %d", name, traced, len(last.Metrics), len(r.defs()), last.Attempted)
			}
			if !traced {
				for _, d := range endToEnd {
					if last.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v", name, d.Name, last.Metrics[d.Name].Value)
					}
				}
			}
		}
		if traced && len(tr.spans) == 0 {
			t.Error("the traced run recorded no spans")
		}
	}
}
