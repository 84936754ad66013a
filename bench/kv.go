package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/gpm-sim/gpm/internal/obs"
	"github.com/gpm-sim/gpm/internal/serve"
	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

const (
	benchConns  = 2  // = nproc on the reference box; load never uses more
	benchShards = 2  // both shards see both connections
	kvWindow    = 32 // closed-loop requests outstanding per connection
	warmup      = time.Second
	traceEvery  = 16 // request tracer samples 1 in 16
	traceBuf    = 4096
)

// kvSpec is what distinguishes the KV workloads.
type kvSpec struct {
	mix      mix
	keys     int     // working set, all preloaded
	openRate float64 // open-loop requests per second, well below saturation
}

// kv-write-uniform spreads writes over a working set 16 times the two
// shards' hot-key sketches (128 keys each), so the cache never helps and
// every request rides an epoch. kv-read-hot is its opposite: a working set
// that fits one shard's sketch whichever way the keys fall, so after the
// warm-up every key is cached, and so few SETs that a GET seldom finds its
// slot under mutation or queues behind a SET's reply on its connection
// (replies are in order: at 5% SETs the loop runs at epoch latency, like the
// write workload, however many GETs hit; README.md has the measurements).
var kvSpecs = map[string]kvSpec{
	wKVWrite: {mix{get: 0, del: 0.05}, 4096, 20000},
	wKVRead:  {mix{get: 0.99, del: 0, zipf: true}, 128, 40000},
}

// node is an in-process gpmserve.
type node struct {
	srv    *serve.Server
	served chan error
	addr   string
	reqs   *obs.RequestTracer
}

// startServer builds the server (GPM, 2 shards, Config defaults otherwise)
// and starts it on a loopback port. With traced set the server carries a
// telemetry registry and a request tracer; otherwise both are nil, as is
// the audit log.
func startServer(traced bool) (*node, error) {
	n := &node{served: make(chan error, 1)}
	cfg := serve.Config{Mode: workloads.GPM, Shards: benchShards}
	if traced {
		n.reqs = obs.NewRequestTracer(traceEvery, 0, traceBuf)
		cfg.Telemetry, cfg.Trace = telemetry.New(), n.reqs
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.addr = addr.String()
	go func() { n.served <- srv.Serve() }()
	return n, nil
}

// slotOf places a key: the shard it routes to and its slot there.
func (n *node) slotOf(key uint64) (shard, slot int) {
	shards := n.srv.Shards()
	shard = int(key % uint64(len(shards)))
	return shard, shards[shard].SlotOf(key)
}

// stop shuts the server down and waits for Serve to return.
func (n *node) stop() error {
	n.srv.Shutdown(5 * time.Second)
	return <-n.served
}

// simTotalUS is the simulated time all shard nodes have consumed so far.
func (n *node) simTotalUS() float64 {
	var t float64
	for _, sh := range n.srv.Shards() {
		t += float64(sh.Env().Ctx.Timeline.Total()) / 1e3
	}
	return t
}

// verifyShards shuts down and checks every shard's durable image against
// its committed model, and the dedup filter's absorbed acks against the
// applied-ID tally.
func (n *node) verifyShards(r *result) {
	if err := n.stop(); err != nil {
		r.fail(1, "serve: %v", err)
	}
	for _, sh := range n.srv.Shards() {
		if err := sh.Verify(); err != nil {
			r.fail(1, "shard %d verify: %v", sh.ID(), err)
		}
	}
	if v := n.srv.AckViolations(); len(v) > 0 {
		r.fail(int64(len(v)), "%d acknowledged requests were not applied exactly once, first %s", len(v), v[0])
	}
}

// kvNode is a server with the raw driver's connections and op streams.
type kvNode struct {
	*node
	drv     *driver
	streams []*stream
}

// startKV starts a server, picks the keys, connects and preloads.
func startKV(seed uint64, spec kvSpec, traced bool) (*kvNode, error) {
	n, err := startServer(traced)
	if err != nil {
		return nil, err
	}
	kn := &kvNode{node: n}
	owned, err := pickKeys(seed, spec.keys, benchConns, n.slotOf)
	if err == nil {
		kn.drv, err = newDriver(n.addr, owned)
	}
	if err != nil {
		n.stop()
		return nil, err
	}
	for c, keys := range owned {
		kn.streams = append(kn.streams, newStream(seed, c, keys, spec.mix))
	}
	kn.drv.preload(seed, kvWindow)
	return kn, nil
}

func (n *kvNode) stop() error {
	n.drv.close()
	return n.node.stop()
}

// verify checks the final store through the front door — a GET sweep whose
// every reply must equal the driver's model — and then the shards.
func (n *kvNode) verify(r *result) {
	n.drv.sweep(kvWindow)
	sent, failed, firstBad := n.drv.tallies()
	r.Attempted += sent
	if failed > 0 {
		r.fail(failed, "%d of %d requests failed, first: %s", failed, sent, firstBad)
	}
	n.drv.close()
	n.verifyShards(r)
}

// closedPhase is the closed-loop measurement of one KV node.
type closedPhase struct {
	opsPerSec, p50 []float64 // one entry per trial
	p99            []float64 // one entry per trial that supports it: a box stall can starve a trial
	replies        int64
	elapsed        time.Duration
	simUS          float64
	mallocs, bytes uint64
}

// runClosed runs trials closed-loop trials of dur each.
func (n *kvNode) runClosed(rc *runCtx, parent, trials int, dur time.Duration) closedPhase {
	var p closedPhase
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sim0 := n.simTotalUS()
	for i := 0; i < trials; i++ {
		sp := rc.tr.begin("bench.closed_trial", parent)
		t := n.drv.closed(n.streams, dur, kvWindow)
		rc.tr.end(sp)
		p50, _ := usAt(t.lat, 0.50)
		if p99, ok := usAt(t.lat, 0.99); ok || rc.smoke {
			p.p99 = append(p.p99, p99)
		}
		p.opsPerSec = append(p.opsPerSec, t.opsPerSec())
		p.p50 = append(p.p50, p50)
		p.replies += int64(len(t.lat))
		p.elapsed += t.elapsed
	}
	p.simUS = n.simTotalUS() - sim0
	runtime.ReadMemStats(&m1)
	p.mallocs, p.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return p
}

// setUp starts a serving node as often as rc.moreSetups asks, stopping all
// but the last, and returns that one with the seconds each start took.
func setUp[N interface{ stop() error }](rc *runCtx, start func() (N, error)) (n N, seconds []float64, err error) {
	for began := time.Now(); rc.moreSetups(len(seconds), began); {
		if len(seconds) > 0 {
			if err = n.stop(); err != nil {
				return n, nil, err
			}
		}
		t0 := time.Now()
		if n, err = start(); err != nil {
			return n, nil, err
		}
		seconds = append(seconds, time.Since(t0).Seconds())
	}
	return n, seconds, nil
}

// runKV measures one KV workload.
func runKV(rc *runCtx, name string) error {
	spec, r := kvSpecs[name], rc.res
	if rc.traced {
		return runKVTraced(rc, spec)
	}
	n, setups, err := setUp(rc, func() (*kvNode, error) { return startKV(rc.seed, spec, false) })
	if err != nil {
		return err
	}
	r.setSummary(mSetup, summarize(setups, int64(len(setups))))

	n.drv.closed(n.streams, rc.scale(warmup), kvWindow) // fills block pools, epoch EWMAs, the hot-key cache
	trials := rc.trials()
	p := n.runClosed(rc, rc.root, trials, rc.measure()/time.Duration(trials))
	r.setSummary(mThroughput, summarize(p.opsPerSec, p.replies))
	r.setSummary(mP50, summarize(p.p50, p.replies))
	r.setSummary(mTail, summarize(p.p99, p.replies))
	r.set(mSim, p.simUS/float64(p.replies))
	if len(p.p99) == 0 {
		r.fail(1, "no trial was long enough to support p99 (%d replies over %d trials)", p.replies, trials)
	}
	n.verify(r)
	return nil
}

// runKVTraced produces the per-layer numbers of a KV workload: a short
// untraced closed loop for the reference throughput and allocation count,
// then the same on a server with telemetry and request tracing on — the
// stage timings and registry counters come from that one — then the open
// loop at the workload's fixed rate.
func runKVTraced(rc *runCtx, spec kvSpec) error {
	r := rc.res
	third := rc.measure() / 3

	root := rc.tr.begin("bench.untraced_node", rc.root)
	plain, err := startKV(rc.seed, spec, false)
	if err != nil {
		return err
	}
	plain.drv.closed(plain.streams, rc.scale(warmup), kvWindow)
	sp := rc.tr.begin("serve.closed_untraced", root)
	up := plain.runClosed(rc, sp, 2, third/2)
	rc.tr.end(sp)
	plain.verify(r)
	rc.tr.end(root)
	r.setSummary("serve.sat_ops_per_s", summarize(up.opsPerSec, up.replies))
	r.set("serve.allocs_per_op", float64(up.mallocs)/float64(up.replies))
	r.set("serve.alloc_bytes_per_op", float64(up.bytes)/float64(up.replies))

	root = rc.tr.begin("bench.traced_node", rc.root)
	n, err := startKV(rc.seed, spec, true)
	if err != nil {
		return err
	}
	n.drv.closed(n.streams, rc.scale(warmup), kvWindow)
	reg := n.srv.Registry()
	before := reg.Snapshot()
	sp = rc.tr.begin("serve.closed_traced", root)
	tp := n.runClosed(rc, sp, 2, third/2)
	rc.tr.end(sp)
	after := reg.Snapshot()
	traces := n.reqs.Last(traceBuf)
	r.setSummary("serve.sat_ops_per_s_traced", summarize(tp.opsPerSec, tp.replies))
	r.set("obs.overhead_pct", 100*(1-median(tp.opsPerSec)/median(up.opsPerSec)))
	serveRegistryMetrics(r, before, after, tp)
	stageMetrics(rc, sp, traces)

	sp = rc.tr.begin("serve.open", root)
	// One list of per-trial values per reported percentile; a trial that
	// cannot support a percentile contributes nothing to it.
	type pct struct {
		metric string
		lag    bool
		q      float64
		trials []float64
	}
	pcts := []*pct{
		{metric: "serve.open_p50_us", q: 0.50}, {metric: "serve.open_p99_us", q: 0.99}, {metric: "serve.open_p999_us", q: 0.999},
		{metric: "bench.gen_lag_p50_us", lag: true, q: 0.50}, {metric: "bench.gen_lag_p99_us", lag: true, q: 0.99},
	}
	var samples int64
	for i := 0; i < 2; i++ {
		tsp := rc.tr.begin("bench.open_trial", sp)
		t := n.drv.open(n.streams, spec.openRate, third/2)
		rc.tr.end(tsp)
		samples += int64(len(t.lat))
		for _, p := range pcts {
			from := t.lat
			if p.lag {
				from = t.lag
			}
			if v, ok := usAt(from, p.q); ok {
				p.trials = append(p.trials, v)
			}
		}
	}
	rc.tr.end(sp)
	for _, p := range pcts {
		r.setSummary(p.metric, summarize(p.trials, samples))
	}
	n.verify(r)
	rc.tr.end(root)
	return nil
}

// serveRegistryMetrics derives the batching and caching figures from the
// difference of two registry snapshots taken around the closed phase p.
func serveRegistryMetrics(r *result, before, after telemetry.Snapshot, p closedPhase) {
	delta := func(suffix string) (d float64) {
		for i := 0; i < benchShards; i++ {
			name := fmt.Sprintf("serve.shard%d.%s", i, suffix)
			d += float64(after.Counters[name] - before.Counters[name])
		}
		return d
	}
	epochs, riders := delta("batches"), delta("ops")
	r.set("serve.epochs", epochs)
	if epochs > 0 {
		r.set("serve.epoch_fill_mean", riders/epochs)
		r.set("serve.wall_per_epoch_us", float64(p.elapsed.Microseconds())*benchShards/epochs)
	}
	if riders > 0 {
		r.set("serve.squash_ratio", delta("squashes")/riders)
	}
	r.set("serve.cache_hit_ratio", delta("cache_hits")/float64(p.replies))
	r.set("serve.txn_abort_ratio", ratio(delta("txn_aborts"), delta("txn_aborts")+delta("txn_commits")))
	hist := func(name string) telemetry.HistogramSnapshot {
		return histDelta(before.Histograms[name], after.Histograms[name])
	}
	r.set("serve.queue_wait_us_p50", histQuantile(hist("serve.queue_wait_us"), 0.5))
	r.set("serve.epoch_lag_us_p50", histQuantile(hist("serve.epoch_lag_us"), 0.5))
	if h := hist("serve.batch_sim_us"); h.Count() > 0 {
		r.set("serve.batch_sim_us_mean", float64(h.Sum)/float64(h.Count()))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histDelta is the histogram of what was observed between two snapshots.
func histDelta(a, b telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	d := telemetry.HistogramSnapshot{Bounds: b.Bounds, Counts: append([]int64(nil), b.Counts...), Sum: b.Sum - a.Sum}
	for i := range a.Counts {
		d.Counts[i] -= a.Counts[i]
	}
	return d
}

// histQuantile interpolates the q-quantile inside its bucket; observations
// in the overflow bucket read as the last bound.
func histQuantile(h telemetry.HistogramSnapshot, q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen, lo float64
	for i, c := range h.Counts {
		if i == len(h.Bounds) {
			return lo
		}
		hi := float64(h.Bounds[i])
		if c > 0 && seen+float64(c) >= rank {
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
		lo = hi
	}
	return lo
}

// stageNames are the pipeline stages of a request that rode an epoch, in
// order; serve.t_<stage>_us is the median time from the previous stage
// point (or the enqueue instant) to this one.
var stageNames = []string{"admit", "seal", "stage", "kernel", "persist", "commit"}

// stageMetrics folds the sampled request traces into the per-stage medians
// and into the span file, as children of the closed phase.
func stageMetrics(rc *runCtx, parent int, traces []obs.ReqTrace) {
	inc := make(map[string][]float64)
	for _, t := range traces {
		req := rc.tr.add("serve.request", parent, t.Start, t.Start.Add(time.Duration(t.TotalUS*1e3)))
		prev := 0.0
		for _, s := range t.Stages {
			if s.Stage == "txn-validate" {
				continue // zero-length marker inside admission
			}
			inc[s.Stage] = append(inc[s.Stage], s.OffsetUS-prev)
			rc.tr.add("serve."+s.Stage, req,
				t.Start.Add(time.Duration(prev*1e3)), t.Start.Add(time.Duration(s.OffsetUS*1e3)))
			prev = s.OffsetUS
		}
	}
	for _, st := range stageNames {
		if v := inc[st]; len(v) > 0 {
			rc.res.setSummary("serve.t_"+st+"_us", summarize(v, int64(len(v))))
		}
	}
}
