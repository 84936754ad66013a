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

// Transaction workers live above the plain workers' ranges, so both
// kinds can share one server and never share a dedup identity: their keys
// start at TxnKeyBase, far above any plain key in [1, KeySpace], and their
// client IDs above txnCIDBase, above any plain worker's (worker index + 1).
const (
	TxnKeyBase = 1 << 20
	txnCIDBase = 64
)

// LoadConfig configures the closed-loop load generator. One run drives two
// kinds of worker against one server, each kind optional:
//
//   - Conns plain workers split Ops GET/SET/DEL requests, each keeping
//     Window pipelined, a seeded deterministic mix over [1, KeySpace].
//   - TxnConns transaction workers split Txns read-modify-write increment
//     transactions of TxnSize keys over [TxnKeyBase,
//     TxnKeyBase+TxnKeySpace), all on one shard (keys agreeing mod the
//     server's shard count), over wire protocol v2. A commit that loses
//     conflict validation re-runs the whole transaction (fresh snapshot,
//     same keys) up to MaxAttempts times; a commit whose outcome stays
//     unknown after the transport retry budget is tallied per key as
//     unresolved, never re-run.
//
// Both kinds draw keys from Dist and share the transport settings.
type LoadConfig struct {
	Addr string
	// Dial overrides how connections reach the server (chaos campaigns
	// dial in-memory pipes or fault-injecting wrappers); nil dials
	// cfg.Addr over TCP.
	Dial func() (net.Conn, error)

	Conns       int   // plain workers (0 = 8 when Ops > 0)
	Ops         int64 // plain requests across plain workers
	Window      int   // pipelined outstanding requests per plain worker (0 = 16)
	GetFraction float64
	DelFraction float64
	KeySpace    uint64 // plain keys are [1, KeySpace] (0 = 4096)

	TxnConns    int    // transaction workers (0 = 4 when Txns > 0)
	Txns        int64  // transactions across transaction workers
	TxnSize     int    // keys per transaction (0 = 2)
	TxnKeySpace uint64 // transaction key range width (0 = 1024)
	MaxAttempts int    // conflict re-runs per transaction (0 = 8)

	Dist    string        // DistUniform (default) or DistZipf
	Theta   float64       // zipf skew in (0, 1); 0 defaults to 0.99 (YCSB hot)
	Seed    uint64        // every worker's key and op streams derive from it
	Timeout time.Duration // per-connection dial/IO deadline (0 = 30s)

	// Retry switches each connection to the exactly-once client: every
	// request carries an "@<cid>.<seq>" identity, replies are matched by ID
	// rather than stream position, and transport failures (or server RETRY
	// verdicts after a crash-restart) resend the request — reconnecting
	// with capped exponential backoff plus jitter — until it resolves or
	// MaxRetries attempts are spent (the op is then counted as given up,
	// not failed). Off, connections run the positional pipeline.
	Retry        bool
	MaxRetries   int           // resend attempts per op and per reconnect (0 = 8)
	RetryBackoff time.Duration // backoff base; doubles per attempt, capped (0 = 2ms)

	// Progress/OnProgress enable live status reporting: every Progress
	// interval the generator calls OnProgress with a snapshot whose rate
	// and p99 cover just that interval (a rolling window, not cumulative).
	// Both must be set for reporting to happen.
	Progress   time.Duration
	OnProgress func(LoadProgress)
}

// LoadProgress is one live status snapshot from a running load generation.
// A unit is a plain request answered or a transaction committed.
type LoadProgress struct {
	Elapsed    time.Duration // since RunLoad started
	Done       int64         // units done so far (cumulative)
	Total      int64         // cfg.Ops + cfg.Txns
	Inflight   int64         // units started but not yet done
	OpsPerSec  float64       // over the last interval only
	P99US      float64       // p99 latency over the last interval, microseconds
	Errors     int64         // ERR replies so far (cumulative)
	Reconnects int64         // transport reconnects so far (cumulative)
	Retries    int64         // resends so far (cumulative; retry client only)
}

// Normalize fills defaults and validates.
func (c *LoadConfig) Normalize() error {
	// A kind with no work starts no workers.
	if c.Ops == 0 {
		c.Conns = 0
	} else if c.Conns == 0 {
		c.Conns = 8
	}
	if c.Txns == 0 {
		c.TxnConns = 0
	} else if c.TxnConns == 0 {
		c.TxnConns = 4
	}
	if c.Window == 0 {
		c.Window = 16
	}
	if c.KeySpace == 0 {
		c.KeySpace = 4096
	}
	if c.TxnSize == 0 {
		c.TxnSize = 2
	}
	if c.TxnKeySpace == 0 {
		c.TxnKeySpace = 1024
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 8
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
	if (c.Addr == "" && c.Dial == nil) || c.Ops < 0 || c.Txns < 0 || c.Ops+c.Txns < 1 ||
		c.Conns < 0 || c.TxnConns < 0 ||
		c.Window < 1 || c.GetFraction < 0 || c.DelFraction < 0 || c.GetFraction+c.DelFraction > 1 ||
		c.TxnSize < 1 || c.MaxAttempts < 1 || c.MaxRetries < 1 || c.RetryBackoff < 0 {
		return fmt.Errorf("serve: invalid load config (addr=%q conns=%d ops=%d window=%d get=%g del=%g "+
			"txn-conns=%d txns=%d txn-size=%d attempts=%d retries=%d)",
			c.Addr, c.Conns, c.Ops, c.Window, c.GetFraction, c.DelFraction,
			c.TxnConns, c.Txns, c.TxnSize, c.MaxAttempts, c.MaxRetries)
	}
	if c.Ops > 0 && c.Txns > 0 && (c.KeySpace >= TxnKeyBase || c.Conns > txnCIDBase) {
		return fmt.Errorf("serve: plain keyspace %d or %d plain conns reach the transaction workers' keys (%d) or client IDs (%d)",
			c.KeySpace, c.Conns, TxnKeyBase, txnCIDBase)
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

// LoadResult summarizes one load run. The top-level tallies cover the plain
// workers, except Reconnects and Retries, which count every worker's
// transport; Txn holds the transaction workers' section. Latencies are
// wall-clock request→reply times measured at the client. The
// key-distribution fields echo the generator config so the JSON is
// self-describing.
type LoadResult struct {
	Ops        int64         `json:"ops"`
	Errors     int64         `json:"errors"` // ERR replies
	Hits       int64         `json:"hits"`
	Misses     int64         `json:"misses"`
	Reconnects int64         `json:"reconnects"`      // transport reconnects (retry client)
	Retries    int64         `json:"retries"`         // resends of already-sent requests
	GaveUp     int64         `json:"gave_up"`         // ops abandoned after MaxRetries
	PerConn    []ConnResult  `json:"conns,omitempty"` // plain workers, then transaction workers
	Dist       string        `json:"dist"`
	Theta      float64       `json:"theta,omitempty"` // zipf only
	KeySpace   uint64        `json:"keyspace"`
	Seed       uint64        `json:"seed"`
	Elapsed    time.Duration `json:"-"`
	ElapsedMS  float64       `json:"elapsed_ms"`
	Throughput float64       `json:"ops_per_sec"`
	latencies

	// Txn is the transaction workers' section; nil when cfg.Txns is 0.
	Txn *TxnResult `json:"txn,omitempty"`
}

// TxnResult summarizes the transaction workers of one load run. Latencies
// cover committed transactions only, BEGIN through COMMIT verdict,
// including conflict re-runs.
type TxnResult struct {
	Txns            int64 `json:"txns"`             // committed transactions
	Aborts          int64 `json:"aborts"`           // commit attempts that lost validation
	ConflictRetries int64 `json:"conflict_retries"` // re-runs after an abort
	AbortedForGood  int64 `json:"aborted_for_good"` // transactions dropped after MaxAttempts conflicts
	GaveUp          int64 `json:"gave_up"`          // commits with UNKNOWN outcome (transport budget spent)
	SnapshotsLost   int64 `json:"snapshots_lost"`   // snapshots invalidated mid-txn (crash-restart); re-run
	ReadAnomalies   int64 `json:"read_anomalies"`   // repeatable-read violations observed in-txn
	Errors          int64 `json:"errors"`           // ERR verdicts and per-txn failures
	Shards          int   `json:"shards"`           // server shard count (HELLO)

	// Committed[k] counts increments known committed on key k; Unresolved[k]
	// counts increments whose outcome is unknown. The snapshot-isolation
	// ledger invariant for an exclusively-owned key:
	//
	//	Committed[k] <= durable count <= Committed[k] + Unresolved[k]
	Committed  map[uint64]int64 `json:"-"`
	Unresolved map[uint64]int64 `json:"-"`

	Throughput float64 `json:"txns_per_sec"`
	latencies
}

// latencies are the percentiles of one worker kind's latency samples.
type latencies struct {
	P50, P95, P99 time.Duration `json:"-"`
	P50US         float64       `json:"p50_us"`
	P95US         float64       `json:"p95_us"`
	P99US         float64       `json:"p99_us"`
}

func summarize(ds []time.Duration) latencies {
	l := latencies{P50: percentile(ds, 0.50), P95: percentile(ds, 0.95), P99: percentile(ds, 0.99)}
	l.P50US = float64(l.P50) / float64(time.Microsecond)
	l.P95US = float64(l.P95) / float64(time.Microsecond)
	l.P99US = float64(l.P99) / float64(time.Microsecond)
	return l
}

// ConnResult is one load worker's share of the run — per-worker errors,
// reconnects, and retry outcomes stay visible even when the aggregate
// looks healthy. For a transaction worker Ops counts committed
// transactions and GaveUp commits of unknown outcome.
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
// reporting: sends/replies are atomics touched once per unit; interval
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
				Total:      cfg.Ops + cfg.Txns,
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

// worker is one connection's tallies, published once when it finishes.
type worker struct {
	ConnResult
	lats         []time.Duration
	hits, misses int64
	txn          *TxnResult // transaction workers only: counters and ledger
	err          error
}

// RunLoad drives the server with cfg's plain and transaction workers at
// once and reports client-side metrics. One connection failing does not
// void the run: its fatal error is recorded in the per-connection
// breakdown and the first such error is returned ALONGSIDE the aggregated
// result, so callers that want the partial numbers can still read them.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	ws := make([]worker, cfg.Conns+cfg.TxnConns)
	start := time.Now()
	var prog *loadTracker
	if cfg.Progress > 0 && cfg.OnProgress != nil {
		prog = &loadTracker{}
		progDone := make(chan struct{})
		defer close(progDone)
		go prog.reportLoop(cfg, start, progDone)
	}
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws[i].Conn = i
			ws[i].err = drive(cfg, i, &ws[i], prog)
		}(i)
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
	if cfg.Txns > 0 {
		out.Txn = &TxnResult{Committed: make(map[uint64]int64), Unresolved: make(map[uint64]int64)}
	}
	var plain, txn []time.Duration
	var firstErr error
	for i := range ws {
		w := &ws[i]
		if w.txn == nil {
			out.Ops += w.Ops
			out.Errors += w.Errors
			out.Hits += w.hits
			out.Misses += w.misses
			out.GaveUp += w.GaveUp
			plain = append(plain, w.lats...)
		} else {
			w.Ops, w.Errors, w.GaveUp = w.txn.Txns, w.txn.Errors, w.txn.GaveUp
			out.Txn.merge(w.txn)
			txn = append(txn, w.lats...)
		}
		out.Reconnects += w.Reconnects
		out.Retries += w.Retries
		if w.err != nil {
			w.Failure = w.err.Error()
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: load conn %d: %w", i, w.err)
			}
		}
		out.PerConn = append(out.PerConn, w.ConnResult)
	}
	out.ElapsedMS = float64(out.Elapsed) / float64(time.Millisecond)
	secs := out.Elapsed.Seconds()
	if secs > 0 {
		out.Throughput = float64(out.Ops) / secs
	}
	out.latencies = summarize(plain)
	if out.Txn != nil {
		if secs > 0 {
			out.Txn.Throughput = float64(out.Txn.Txns) / secs
		}
		out.Txn.latencies = summarize(txn)
	}
	return out, firstErr
}

// merge adds one transaction worker's tallies and ledger into t.
func (t *TxnResult) merge(w *TxnResult) {
	t.Txns += w.Txns
	t.Aborts += w.Aborts
	t.ConflictRetries += w.ConflictRetries
	t.AbortedForGood += w.AbortedForGood
	t.GaveUp += w.GaveUp
	t.SnapshotsLost += w.SnapshotsLost
	t.ReadAnomalies += w.ReadAnomalies
	t.Errors += w.Errors
	t.Shards = max(t.Shards, w.Shards)
	for k, n := range w.Committed {
		t.Committed[k] += n
	}
	for k, n := range w.Unresolved {
		t.Unresolved[k] += n
	}
}

// share is worker i's part of total split over n workers; the remainder
// goes to the first.
func share(total int64, n, i int) int64 {
	if i == 0 {
		return total/int64(n) + total%int64(n)
	}
	return total / int64(n)
}

// drive dials worker i's client and runs its share of the load. Workers
// below cfg.Conns are plain (client ID i+1, protocol v1); the rest are
// transaction workers (client ID above txnCIDBase, protocol v2). Each
// worker's key and op stream is a pure function of cfg.Seed and its index.
func drive(cfg LoadConfig, i int, w *worker, prog *loadTracker) error {
	cc := client.Config{
		Addr:         cfg.Addr,
		Dial:         cfg.Dial,
		Timeout:      cfg.Timeout,
		Reliable:     cfg.Retry,
		CID:          uint64(i) + 1,
		MaxRetries:   cfg.MaxRetries,
		RetryBackoff: cfg.RetryBackoff,
		Seed:         cfg.Seed,
		OnRetry:      prog.addRetry,
		OnReconnect:  prog.addReconnect,
	}
	seed := cfg.Seed + uint64(i)*0x9e3779b9
	j := i - cfg.Conns // transaction worker index
	if j >= 0 {
		w.txn = &TxnResult{Committed: make(map[uint64]int64), Unresolved: make(map[uint64]int64)}
		cc.Proto = client.MaxProto
		cc.CID = txnCIDBase + uint64(j) + 1
		seed = cfg.Seed + uint64(j)*0x9e3779b9 + 0x7f4a7c15
	}
	cl, err := client.Dial(cc)
	if err != nil {
		return err
	}
	defer func() {
		cs := cl.Stats()
		w.Reconnects, w.Retries = cs.Reconnects, cs.Retries
		cl.Close()
	}()
	rng := sim.NewRNG(seed)
	if j < 0 {
		return drivePlain(cfg, cl, rng, share(cfg.Ops, cfg.Conns, i), prog, w)
	}
	return driveTxns(cfg, cl, rng, share(cfg.Txns, cfg.TxnConns, j), prog, w)
}

// drivePlain runs one plain worker's ops: keep up to Window futures
// pipelined, wait on the oldest, tally its reply. Plain clients match
// replies positionally; reliable clients retry, reconnect and resend on
// RETRY inside Wait. A reliable op that spends its retry budget resolves
// ErrGaveUp and is tallied as given up, not done.
func drivePlain(cfg LoadConfig, cl *client.Client, rng *sim.RNG, ops int64, prog *loadTracker, w *worker) error {
	nextKey := newKeyGen(cfg, cfg.KeySpace, rng)
	window := make([]*client.Future, 0, cfg.Window)
	var sent int64
	for sent < ops || len(window) > 0 {
		// Top up the pipeline with fresh requests.
		for sent < ops && len(window) < cfg.Window {
			key := 1 + nextKey()
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
				w.GaveUp++
				continue // outcome unknown; the dedup window absorbs a later retry
			}
			return err
		}
		lat := f.RTT()
		w.Ops++
		w.lats = append(w.lats, lat)
		prog.record(lat)
		switch {
		case strings.HasPrefix(body, "VALUE"):
			w.hits++
		case strings.HasPrefix(body, "NOTFOUND"):
			w.misses++
		case strings.HasPrefix(body, "ERR"):
			w.Errors++
			prog.addErr()
		}
	}
	return nil
}

// driveTxns runs one transaction worker's transactions. Each draws its
// first key's offset from the distribution and steps the rest by the shard
// count, so the write set stays on one shard.
func driveTxns(cfg LoadConfig, cl *client.Client, rng *sim.RNG, txns int64, prog *loadTracker, w *worker) error {
	shards := cl.Shards()
	if shards < 1 {
		return fmt.Errorf("server negotiated v%d with %d shards — transactions need v2", cl.Proto(), shards)
	}
	w.txn.Shards = shards
	span := cfg.TxnKeySpace - cfg.TxnKeySpace%uint64(shards) // keep residues under wraparound
	if span < uint64(cfg.TxnSize)*uint64(shards) {
		return fmt.Errorf("keyspace %d cannot hold %d same-shard keys across %d shards", cfg.TxnKeySpace, cfg.TxnSize, shards)
	}
	nextOff := newKeyGen(cfg, span, rng)
	keys := make([]uint64, cfg.TxnSize)
	for done := int64(0); done < txns; done++ {
		off := nextOff()
		for i := range keys {
			keys[i] = TxnKeyBase + (off+uint64(i)*uint64(shards))%span
		}
		prog.addSend()
		if err := runOneTxn(cfg, cl, keys, prog, w); err != nil {
			return err
		}
	}
	return nil
}

// runOneTxn executes one RMW increment transaction over keys, re-running
// on conflict aborts. Each transaction reads its keys at the BEGIN
// snapshot, re-reads the first key as a repeatable-read probe, writes every
// key's incremented count, and commits. Every terminal outcome is tallied
// exactly once.
func runOneTxn(cfg LoadConfig, cl *client.Client, keys []uint64, prog *loadTracker, w *worker) error {
	start := time.Now()
	t := w.txn
attempts:
	for attempt := 0; ; attempt++ {
		txn, err := cl.Begin()
		if err != nil {
			if errors.Is(err, client.ErrGaveUp) {
				t.GaveUp++ // nothing written; no ledger impact
				return nil
			}
			return err
		}
		counts := make([]uint64, len(keys))
		for i, k := range keys {
			v, found, err := txn.Get(k)
			if err != nil {
				switch {
				case errors.Is(err, client.ErrGaveUp):
					t.GaveUp++
					return nil
				case errors.Is(err, client.ErrSnapshotLost):
					// A crash-restart raised the oracle floor past this
					// snapshot. Nothing was written; drop the dead snapshot
					// and re-run from a fresh BEGIN, on the same attempt
					// budget as conflicts so a restart storm stays bounded.
					t.SnapshotsLost++
					_ = txn.Abort() // best-effort: releases the GC pin
					if attempt+1 >= cfg.MaxAttempts {
						t.AbortedForGood++
						return nil
					}
					continue attempts
				default:
					t.Errors++
					prog.addErr()
					return fmt.Errorf("txn read key %d: %w", k, err)
				}
			}
			if !found {
				v = 0
			}
			counts[i] = v
		}
		// Repeatable read: the snapshot must answer the first key the same
		// way twice, no matter what commits in between.
		if v2, found2, err := txn.Get(keys[0]); err == nil {
			var v0 uint64
			if found2 {
				v0 = v2
			}
			if v0 != counts[0] {
				t.ReadAnomalies++
			}
		}
		for i, k := range keys {
			txn.Set(k, counts[i]+1)
		}
		res, err := txn.Commit()
		if err != nil {
			if errors.Is(err, client.ErrGaveUp) {
				// Outcome unknown: the write set may or may not have
				// committed. Every key absorbs one unresolved increment.
				t.GaveUp++
				for _, k := range keys {
					t.Unresolved[k]++
				}
				return nil
			}
			t.Errors++
			prog.addErr()
			return fmt.Errorf("txn commit: %w", err)
		}
		if res.Committed {
			t.Txns++
			for _, k := range keys {
				t.Committed[k]++
			}
			lat := time.Since(start)
			w.lats = append(w.lats, lat)
			prog.record(lat)
			return nil
		}
		t.Aborts++
		if attempt+1 >= cfg.MaxAttempts {
			t.AbortedForGood++
			return nil
		}
		t.ConflictRetries++
	}
}

// newKeyGen draws key offsets in [0, n) for a normalized config: uniform,
// or scrambled zipfian for hot-key workloads.
func newKeyGen(cfg LoadConfig, n uint64, rng *sim.RNG) func() uint64 {
	if cfg.Dist == DistZipf {
		z := newZipfGen(n, cfg.Theta)
		return func() uint64 { return z.next(rng) - 1 }
	}
	return func() uint64 { return rng.Uint64() % n }
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
	// A bijective scramble: equal ranks always map to the same key, so the
	// hot set is stable across draws.
	return 1 + sim.Mix64(rank)%z.n
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
