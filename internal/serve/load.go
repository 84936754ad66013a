package serve

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gpm-sim/gpm/internal/serve/client"
	"github.com/gpm-sim/gpm/internal/sim"
)

// Key distributions the load generator can draw from.
const (
	DistUniform = "uniform"
	DistZipf    = "zipf"
)

// LoadConfig configures the closed-loop load generator: Conns connections,
// each keeping Window requests pipelined, sending a seeded deterministic
// GET/SET/DEL mix over [1, KeySpace] drawn uniformly or zipfian.
type LoadConfig struct {
	Addr        string
	Conns       int
	Ops         int64 // total across connections
	Window      int   // pipelined outstanding requests per connection
	GetFraction float64
	DelFraction float64
	KeySpace    uint64
	Dist        string  // DistUniform (default) or DistZipf
	Theta       float64 // zipf skew in (0, 1); 0 defaults to 0.99 (YCSB hot)
	Seed        uint64
	Timeout     time.Duration // per-connection dial/IO deadline (0 = 30s)

	// Retry switches each connection to the exactly-once client: every
	// request carries an "@<cid>.<seq>" identity, replies are matched by ID
	// rather than stream position, and transport failures (or server RETRY
	// verdicts after a crash-restart) resend the request — reconnecting
	// with capped exponential backoff plus jitter — until it resolves or
	// MaxRetries attempts are spent (the op is then counted as given up,
	// not failed). Off, connections run the legacy positional pipeline.
	Retry        bool
	MaxRetries   int           // resend attempts per op and per reconnect (0 = 8)
	RetryBackoff time.Duration // backoff base; doubles per attempt, capped (0 = 2ms)

	// Dial overrides how connections reach the server (chaos campaigns
	// dial in-memory pipes or fault-injecting wrappers); nil dials
	// cfg.Addr over TCP.
	Dial func() (net.Conn, error)

	// Progress/OnProgress enable live status reporting: every Progress
	// interval the generator calls OnProgress with a snapshot whose rate
	// and p99 cover just that interval (a rolling window, not cumulative).
	// Both must be set for reporting to happen.
	Progress   time.Duration
	OnProgress func(LoadProgress)
}

// LoadProgress is one live status snapshot from a running load generation.
type LoadProgress struct {
	Elapsed    time.Duration // since RunLoad started
	Done       int64         // replies received so far (cumulative)
	Total      int64         // cfg.Ops
	Inflight   int64         // requests sent but not yet answered
	OpsPerSec  float64       // over the last interval only
	P99US      float64       // p99 latency over the last interval, microseconds
	Errors     int64         // ERR replies so far (cumulative)
	Reconnects int64         // transport reconnects so far (cumulative)
	Retries    int64         // resends so far (cumulative; retry client only)
}

// Normalize fills defaults and validates.
func (c *LoadConfig) Normalize() error {
	if c.Conns == 0 {
		c.Conns = 8
	}
	if c.Window == 0 {
		c.Window = 16
	}
	if c.KeySpace == 0 {
		c.KeySpace = 4096
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.Dist == "" {
		c.Dist = DistUniform
	}
	if c.Dist == DistZipf && c.Theta == 0 {
		c.Theta = 0.99
	}
	if (c.Addr == "" && c.Dial == nil) || c.Conns < 1 || c.Ops < 1 || c.Window < 1 ||
		c.GetFraction < 0 || c.DelFraction < 0 || c.GetFraction+c.DelFraction > 1 ||
		c.MaxRetries < 1 || c.RetryBackoff < 0 {
		return fmt.Errorf("serve: invalid load config (addr=%q conns=%d ops=%d window=%d get=%g del=%g retries=%d)",
			c.Addr, c.Conns, c.Ops, c.Window, c.GetFraction, c.DelFraction, c.MaxRetries)
	}
	switch c.Dist {
	case DistUniform:
	case DistZipf:
		if c.Theta <= 0 || c.Theta >= 1 {
			return fmt.Errorf("serve: zipf theta must be in (0, 1), got %g", c.Theta)
		}
	default:
		return fmt.Errorf("serve: unknown key distribution %q (valid: %s, %s)", c.Dist, DistUniform, DistZipf)
	}
	return nil
}

// LoadResult summarizes one load run. Latencies are wall-clock
// request→reply times measured at the client. The key-distribution fields
// echo the generator config so the JSON is self-describing.
type LoadResult struct {
	Ops        int64         `json:"ops"`
	Errors     int64         `json:"errors"` // ERR replies + transport failures
	Hits       int64         `json:"hits"`
	Misses     int64         `json:"misses"`
	Reconnects int64         `json:"reconnects"`      // transport reconnects (retry client)
	Retries    int64         `json:"retries"`         // resends of already-sent requests
	GaveUp     int64         `json:"gave_up"`         // ops abandoned after MaxRetries
	PerConn    []ConnResult  `json:"conns,omitempty"` // per-worker breakdown
	Dist       string        `json:"dist"`
	Theta      float64       `json:"theta,omitempty"` // zipf only
	KeySpace   uint64        `json:"keyspace"`
	Seed       uint64        `json:"seed"`
	Elapsed    time.Duration `json:"-"`
	ElapsedMS  float64       `json:"elapsed_ms"`
	Throughput float64       `json:"ops_per_sec"`
	P50        time.Duration `json:"-"`
	P95        time.Duration `json:"-"`
	P99        time.Duration `json:"-"`
	P50US      float64       `json:"p50_us"`
	P95US      float64       `json:"p95_us"`
	P99US      float64       `json:"p99_us"`
}

// ConnResult is one load worker's share of the run — per-worker errors,
// reconnects, and retry outcomes stay visible even when the aggregate
// looks healthy.
type ConnResult struct {
	Conn       int    `json:"conn"`
	Ops        int64  `json:"ops"` // replies received (excludes gave-up)
	Errors     int64  `json:"errors"`
	Reconnects int64  `json:"reconnects"`
	Retries    int64  `json:"retries"`
	GaveUp     int64  `json:"gave_up"`
	Failure    string `json:"failure,omitempty"` // fatal transport error, if any
}

// loadTracker aggregates live counters across connections for progress
// reporting: sends/replies are atomics touched once per request; interval
// latencies collect under a mutex and are swapped out at each report.
type loadTracker struct {
	sends      atomic.Int64
	replies    atomic.Int64
	errs       atomic.Int64
	reconnects atomic.Int64
	retries    atomic.Int64
	mu         sync.Mutex
	lats       []time.Duration
}

// The nil-safe increments below let drivers count unconditionally whether
// or not progress reporting (and thus the tracker) is enabled.

func (t *loadTracker) addSend() {
	if t != nil {
		t.sends.Add(1)
	}
}

func (t *loadTracker) addErr() {
	if t != nil {
		t.errs.Add(1)
	}
}

func (t *loadTracker) addReconnect() {
	if t != nil {
		t.reconnects.Add(1)
	}
}

func (t *loadTracker) addRetry() {
	if t != nil {
		t.retries.Add(1)
	}
}

func (t *loadTracker) record(d time.Duration) {
	if t == nil {
		return
	}
	t.replies.Add(1)
	t.mu.Lock()
	t.lats = append(t.lats, d)
	t.mu.Unlock()
}

// swap returns the latencies recorded since the previous swap.
func (t *loadTracker) swap() []time.Duration {
	t.mu.Lock()
	out := t.lats
	t.lats = nil
	t.mu.Unlock()
	return out
}

// reportLoop emits one LoadProgress per interval until stop closes.
func (t *loadTracker) reportLoop(cfg LoadConfig, start time.Time, stop <-chan struct{}) {
	tick := time.NewTicker(cfg.Progress)
	defer tick.Stop()
	var lastDone int64
	lastAt := start
	for {
		select {
		case <-stop:
			return
		case now := <-tick.C:
			done := t.replies.Load()
			span := now.Sub(lastAt)
			var rate float64
			if span > 0 {
				rate = float64(done-lastDone) / span.Seconds()
			}
			cfg.OnProgress(LoadProgress{
				Elapsed:    now.Sub(start),
				Done:       done,
				Total:      cfg.Ops,
				Inflight:   t.sends.Load() - done,
				OpsPerSec:  rate,
				P99US:      float64(percentile(t.swap(), 0.99)) / float64(time.Microsecond),
				Errors:     t.errs.Load(),
				Reconnects: t.reconnects.Load(),
				Retries:    t.retries.Load(),
			})
			lastDone, lastAt = done, now
		}
	}
}

// connStats is one worker's raw tallies, published once when it finishes.
type connStats struct {
	lats         []time.Duration
	errs         int64
	hits, misses int64
	reconnects   int64
	retries      int64
	gaveUp       int64
	err          error
}

// RunLoad drives the server at cfg.Addr and reports client-side metrics.
// One connection failing does not void the run: its fatal error is
// recorded in the per-connection breakdown and the first such error is
// returned ALONGSIDE the aggregated result, so callers that want the
// partial numbers can still read them.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	stats := make([]connStats, cfg.Conns)
	per := cfg.Ops / int64(cfg.Conns)
	start := time.Now()
	var prog *loadTracker
	if cfg.Progress > 0 && cfg.OnProgress != nil {
		prog = &loadTracker{}
		progDone := make(chan struct{})
		defer close(progDone)
		go prog.reportLoop(cfg, start, progDone)
	}
	var wg sync.WaitGroup
	for ci := 0; ci < cfg.Conns; ci++ {
		ops := per
		if ci == 0 {
			ops += cfg.Ops % int64(cfg.Conns) // remainder on the first conn
		}
		wg.Add(1)
		go func(ci int, ops int64) {
			defer wg.Done()
			stats[ci].err = driveConn(cfg, ci, ops, prog, &stats[ci])
		}(ci, ops)
	}
	wg.Wait()

	out := &LoadResult{
		Elapsed:  time.Since(start),
		Dist:     cfg.Dist,
		KeySpace: cfg.KeySpace,
		Seed:     cfg.Seed,
	}
	if cfg.Dist == DistZipf {
		out.Theta = cfg.Theta
	}
	var all []time.Duration
	var firstErr error
	for i := range stats {
		st := &stats[i]
		cr := ConnResult{
			Conn: i, Ops: int64(len(st.lats)), Errors: st.errs,
			Reconnects: st.reconnects, Retries: st.retries, GaveUp: st.gaveUp,
		}
		if st.err != nil {
			cr.Failure = st.err.Error()
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: load conn %d: %w", i, st.err)
			}
		}
		out.PerConn = append(out.PerConn, cr)
		out.Ops += cr.Ops
		out.Errors += st.errs
		out.Hits += st.hits
		out.Misses += st.misses
		out.Reconnects += st.reconnects
		out.Retries += st.retries
		out.GaveUp += st.gaveUp
		all = append(all, st.lats...)
	}
	out.ElapsedMS = float64(out.Elapsed) / float64(time.Millisecond)
	if out.Elapsed > 0 {
		out.Throughput = float64(out.Ops) / out.Elapsed.Seconds()
	}
	out.P50 = percentile(all, 0.50)
	out.P95 = percentile(all, 0.95)
	out.P99 = percentile(all, 0.99)
	out.P50US = float64(out.P50) / float64(time.Microsecond)
	out.P95US = float64(out.P95) / float64(time.Microsecond)
	out.P99US = float64(out.P99) / float64(time.Microsecond)
	return out, firstErr
}

// loadClientConfig maps one load worker onto a client-package Config:
// plain workers run the positional pipeline, Retry workers the reliable
// exactly-once client (CID = worker index + 1, matching the legacy
// generator's identity scheme byte for byte).
func loadClientConfig(cfg LoadConfig, ci int, prog *loadTracker) client.Config {
	return client.Config{
		Addr:         cfg.Addr,
		Dial:         cfg.Dial,
		Timeout:      cfg.Timeout,
		Reliable:     cfg.Retry,
		CID:          uint64(ci) + 1,
		MaxRetries:   cfg.MaxRetries,
		RetryBackoff: cfg.RetryBackoff,
		Seed:         cfg.Seed,
		OnRetry:      prog.addRetry,
		OnReconnect:  prog.addReconnect,
	}
}

// driveConn runs one worker's share of the load through the client
// package: keep up to Window futures pipelined, wait on the oldest,
// tally its reply. Plain workers match replies positionally; Retry
// workers run the reliable client, whose transport retries/reconnects
// and RETRY resends happen inside Wait. A reliable op that spends its
// retry budget resolves ErrGaveUp and is tallied as given up, not done.
func driveConn(cfg LoadConfig, ci int, ops int64, prog *loadTracker, st *connStats) error {
	cl, err := client.Dial(loadClientConfig(cfg, ci, prog))
	if err != nil {
		return err
	}
	defer func() {
		cs := cl.Stats()
		st.reconnects, st.retries, st.gaveUp = cs.Reconnects, cs.Retries, cs.GaveUp
		cl.Close()
	}()

	rng := sim.NewRNG(cfg.Seed + uint64(ci)*0x9e3779b9)
	nextKey := newKeyGen(cfg, rng)

	window := make([]*client.Future, 0, cfg.Window)
	var sent int64
	for sent < ops || len(window) > 0 {
		// Top up the pipeline with fresh requests.
		for sent < ops && len(window) < cfg.Window {
			key := nextKey()
			roll := rng.Float64()
			var f *client.Future
			var err error
			switch {
			case roll < cfg.GetFraction:
				f, err = cl.Get(key)
			case roll < cfg.GetFraction+cfg.DelFraction:
				f, err = cl.Del(key)
			default:
				f, err = cl.Set(key, key*2654435761+13)
			}
			if err != nil {
				return err
			}
			sent++
			prog.addSend()
			window = append(window, f)
		}
		f := window[0]
		window = window[1:]
		body, err := cl.Wait(f)
		if err != nil {
			if errors.Is(err, client.ErrGaveUp) {
				continue // outcome unknown; the dedup window absorbs a later retry
			}
			return err
		}
		lat := f.RTT()
		st.lats = append(st.lats, lat)
		prog.record(lat)
		switch {
		case strings.HasPrefix(body, "VALUE"):
			st.hits++
		case strings.HasPrefix(body, "NOTFOUND"):
			st.misses++
		case strings.HasPrefix(body, "ERR"):
			st.errs++
			prog.addErr()
		}
	}
	return nil
}

// newKeyGen builds the per-connection key stream for a normalized config:
// uniform over [1, KeySpace], or scrambled zipfian for hot-key workloads.
func newKeyGen(cfg LoadConfig, rng *sim.RNG) func() uint64 {
	if cfg.Dist == DistZipf {
		z := newZipfGen(cfg.KeySpace, cfg.Theta)
		return func() uint64 { return z.next(rng) }
	}
	return func() uint64 { return 1 + rng.Uint64()%cfg.KeySpace }
}

// zipfGen samples ranks with P(rank) ∝ 1/rank^theta over [1, n] using the
// closed-form YCSB/Gray generator, then scrambles rank -> key with a fixed
// mixer so the hot set spreads across the key-mod-shards partition map
// instead of piling onto shard 1. Sampling is O(1) per draw after an O(n)
// zeta precomputation; the stream is a pure function of the caller's RNG,
// so seeded runs are reproducible.
type zipfGen struct {
	n            uint64
	theta        float64
	alpha        float64
	zetan        float64
	eta          float64
	halfPowTheta float64
}

func newZipfGen(n uint64, theta float64) *zipfGen {
	zetan := zetaSum(n, theta)
	return &zipfGen{
		n:            n,
		theta:        theta,
		alpha:        1 / (1 - theta),
		zetan:        zetan,
		eta:          (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zetaSum(2, theta)/zetan),
		halfPowTheta: math.Pow(0.5, theta),
	}
}

// zetaSum is the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zetaSum(n uint64, theta float64) float64 {
	var z float64
	for i := uint64(1); i <= n; i++ {
		z += 1 / math.Pow(float64(i), theta)
	}
	return z
}

// next draws one key in [1, n]; rank 0 is the hottest before scrambling.
func (z *zipfGen) next(rng *sim.RNG) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+z.halfPowTheta:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return 1 + mix64(rank)%z.n
}

// mix64 is the splitmix64 finalizer: a fixed bijective scramble, so equal
// ranks always map to the same key (the hot set is stable across draws).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// percentile returns the p-th percentile (0..1) of ds, 0 when empty.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
