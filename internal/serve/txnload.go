package serve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/gpm-sim/gpm/internal/serve/client"
	"github.com/gpm-sim/gpm/internal/sim"
)

// TxnLoadConfig configures the closed-loop transaction generator: Conns
// workers each run read-modify-write increment transactions of TxnSize
// keys (all on one shard, keys agreeing mod the server's shard count)
// until Txns transactions have resolved. A commit that loses conflict
// validation re-runs the whole transaction (fresh snapshot, same keys) up
// to MaxAttempts times; a commit whose outcome stays unknown after the
// transport retry budget is tallied per key as unresolved, never re-run.
type TxnLoadConfig struct {
	Addr string
	Dial func() (net.Conn, error)

	Conns   int
	Txns    int64 // total transactions across workers
	TxnSize int   // keys per transaction (>= 1)

	// Keys draw from [KeyBase, KeyBase+KeySpace): the first key comes from
	// the distribution, the rest step by the shard count to stay home. A
	// disjoint KeyBase keeps transaction keys from colliding with plain
	// traffic sharing the server.
	KeyBase  uint64
	KeySpace uint64
	Dist     string
	Theta    float64
	Seed     uint64

	Timeout      time.Duration
	Retry        bool // exactly-once identities on every request
	MaxRetries   int
	RetryBackoff time.Duration
	MaxAttempts  int // conflict re-runs per transaction (0 = 8)

	// CIDBase offsets the workers' client identities (worker ci uses
	// CIDBase+ci+1). Campaigns mixing transaction and plain retry clients
	// on one server give each class a disjoint CID range so their dedup
	// identities never collide.
	CIDBase uint64

	Progress   time.Duration
	OnProgress func(LoadProgress)
}

// Normalize fills defaults and validates.
func (c *TxnLoadConfig) Normalize() error {
	if c.Conns == 0 {
		c.Conns = 4
	}
	if c.TxnSize == 0 {
		c.TxnSize = 2
	}
	if c.KeyBase == 0 {
		c.KeyBase = 1
	}
	if c.KeySpace == 0 {
		c.KeySpace = 1024
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
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 8
	}
	if c.Dist == "" {
		c.Dist = DistUniform
	}
	if c.Dist == DistZipf && c.Theta == 0 {
		c.Theta = 0.99
	}
	if (c.Addr == "" && c.Dial == nil) || c.Conns < 1 || c.Txns < 1 || c.TxnSize < 1 {
		return fmt.Errorf("serve: invalid txn load config (addr=%q conns=%d txns=%d size=%d)",
			c.Addr, c.Conns, c.Txns, c.TxnSize)
	}
	if c.Dist != DistUniform && c.Dist != DistZipf {
		return fmt.Errorf("serve: unknown key distribution %q", c.Dist)
	}
	return nil
}

// TxnLoadResult summarizes one transaction load run. Latencies cover
// committed transactions only, BEGIN through COMMIT verdict, including
// conflict re-runs.
type TxnLoadResult struct {
	Txns            int64    `json:"txns"`               // committed transactions
	Aborts          int64    `json:"aborts"`             // commit attempts that lost validation
	ConflictRetries int64    `json:"conflict_retries"`   // re-runs after an abort
	AbortedForGood  int64    `json:"aborted_for_good"`   // transactions dropped after MaxAttempts conflicts
	GaveUp          int64    `json:"gave_up"`            // commits with UNKNOWN outcome (transport budget spent)
	SnapshotsLost   int64    `json:"snapshots_lost"`     // snapshots invalidated mid-txn (crash-restart); re-run
	ReadAnomalies   int64    `json:"read_anomalies"`     // repeatable-read violations observed in-txn
	Errors          int64    `json:"errors"`             // ERR verdicts and per-txn failures
	Retries         int64    `json:"retries"`            // transport resends
	Reconnects      int64    `json:"reconnects"`         // transport reconnects
	Shards          int      `json:"shards"`             // server shard count (HELLO)
	Failures        []string `json:"failures,omitempty"` // fatal per-worker errors

	// Committed[k] counts increments known committed on key k; Unresolved[k]
	// counts increments whose outcome is unknown. The snapshot-isolation
	// ledger invariant for an exclusively-owned key:
	//
	//	Committed[k] <= durable count <= Committed[k] + Unresolved[k]
	Committed  map[uint64]int64 `json:"-"`
	Unresolved map[uint64]int64 `json:"-"`

	Elapsed    time.Duration `json:"-"`
	ElapsedMS  float64       `json:"elapsed_ms"`
	Throughput float64       `json:"txns_per_sec"`
	P50        time.Duration `json:"-"`
	P95        time.Duration `json:"-"`
	P99        time.Duration `json:"-"`
	P50US      float64       `json:"p50_us"`
	P95US      float64       `json:"p95_us"`
	P99US      float64       `json:"p99_us"`
}

// txnWorker is one connection's tallies, merged after the run.
type txnWorker struct {
	lats       []time.Duration
	committed  map[uint64]int64
	unresolved map[uint64]int64
	res        TxnLoadResult // scalar counters only
	err        error
}

// RunTxnLoad drives read-modify-write increment transactions and reports
// the commit/abort/unresolved ledger. Like RunLoad, one worker failing
// does not void the run: its error lands in Failures and the first one is
// returned alongside the aggregated result.
func RunTxnLoad(cfg TxnLoadConfig) (*TxnLoadResult, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	workers := make([]txnWorker, cfg.Conns)
	per := cfg.Txns / int64(cfg.Conns)
	start := time.Now()
	var prog *loadTracker
	if cfg.Progress > 0 && cfg.OnProgress != nil {
		prog = &loadTracker{}
		progDone := make(chan struct{})
		defer close(progDone)
		go prog.reportLoop(LoadConfig{Ops: cfg.Txns, Progress: cfg.Progress, OnProgress: cfg.OnProgress}, start, progDone)
	}
	var wg sync.WaitGroup
	for ci := 0; ci < cfg.Conns; ci++ {
		txns := per
		if ci == 0 {
			txns += cfg.Txns % int64(cfg.Conns)
		}
		wg.Add(1)
		go func(ci int, txns int64) {
			defer wg.Done()
			w := &workers[ci]
			w.committed = make(map[uint64]int64)
			w.unresolved = make(map[uint64]int64)
			w.err = driveTxnConn(cfg, ci, txns, prog, w)
		}(ci, txns)
	}
	wg.Wait()

	out := &TxnLoadResult{
		Elapsed:    time.Since(start),
		Committed:  make(map[uint64]int64),
		Unresolved: make(map[uint64]int64),
	}
	var all []time.Duration
	var firstErr error
	for i := range workers {
		w := &workers[i]
		out.Txns += w.res.Txns
		out.Aborts += w.res.Aborts
		out.ConflictRetries += w.res.ConflictRetries
		out.AbortedForGood += w.res.AbortedForGood
		out.GaveUp += w.res.GaveUp
		out.SnapshotsLost += w.res.SnapshotsLost
		out.ReadAnomalies += w.res.ReadAnomalies
		out.Errors += w.res.Errors
		out.Retries += w.res.Retries
		out.Reconnects += w.res.Reconnects
		if w.res.Shards > out.Shards {
			out.Shards = w.res.Shards
		}
		for k, n := range w.committed {
			out.Committed[k] += n
		}
		for k, n := range w.unresolved {
			out.Unresolved[k] += n
		}
		if w.err != nil {
			out.Failures = append(out.Failures, fmt.Sprintf("conn %d: %v", i, w.err))
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: txn load conn %d: %w", i, w.err)
			}
		}
		all = append(all, w.lats...)
	}
	out.ElapsedMS = float64(out.Elapsed) / float64(time.Millisecond)
	if out.Elapsed > 0 {
		out.Throughput = float64(out.Txns) / out.Elapsed.Seconds()
	}
	out.P50 = percentile(all, 0.50)
	out.P95 = percentile(all, 0.95)
	out.P99 = percentile(all, 0.99)
	out.P50US = float64(out.P50) / float64(time.Microsecond)
	out.P95US = float64(out.P95) / float64(time.Microsecond)
	out.P99US = float64(out.P99) / float64(time.Microsecond)
	return out, firstErr
}

// driveTxnConn runs one worker's transactions. Each transaction reads its
// keys at the BEGIN snapshot, re-reads the first key as a repeatable-read
// probe, writes every key's incremented count, and commits.
func driveTxnConn(cfg TxnLoadConfig, ci int, txns int64, prog *loadTracker, w *txnWorker) error {
	cl, err := client.Dial(client.Config{
		Addr: cfg.Addr, Dial: cfg.Dial, Timeout: cfg.Timeout,
		Proto:    client.MaxProto,
		Reliable: cfg.Retry, CID: cfg.CIDBase + uint64(ci) + 1,
		MaxRetries: cfg.MaxRetries, RetryBackoff: cfg.RetryBackoff,
		Seed:    cfg.Seed,
		OnRetry: prog.addRetry, OnReconnect: prog.addReconnect,
	})
	if err != nil {
		return err
	}
	defer func() {
		cs := cl.Stats()
		w.res.Retries, w.res.Reconnects = cs.Retries, cs.Reconnects
		cl.Close()
	}()
	shards := cl.Shards()
	if shards < 1 {
		return fmt.Errorf("server negotiated v%d with %d shards — transactions need v2", cl.Proto(), shards)
	}
	w.res.Shards = shards
	span := cfg.KeySpace - cfg.KeySpace%uint64(shards) // keep residues under wraparound
	if span < uint64(cfg.TxnSize)*uint64(shards) {
		return fmt.Errorf("keyspace %d cannot hold %d same-shard keys across %d shards", cfg.KeySpace, cfg.TxnSize, shards)
	}
	rng := sim.NewRNG(cfg.Seed + uint64(ci)*0x9e3779b9 + 0x7f4a7c15)
	nextOff := func() uint64 { return rng.Uint64() % span }
	if cfg.Dist == DistZipf {
		z := newZipfGen(span, cfg.Theta)
		nextOff = func() uint64 { return z.next(rng) - 1 }
	}

	keys := make([]uint64, cfg.TxnSize)
	for done := int64(0); done < txns; done++ {
		off := nextOff()
		for i := range keys {
			keys[i] = cfg.KeyBase + (off+uint64(i)*uint64(shards))%span
		}
		if err := runOneTxn(cfg, cl, keys, prog, w); err != nil {
			return err
		}
	}
	return nil
}

// runOneTxn executes one RMW increment transaction over keys, re-running
// on conflict aborts. Every terminal outcome is tallied exactly once.
func runOneTxn(cfg TxnLoadConfig, cl *client.Client, keys []uint64, prog *loadTracker, w *txnWorker) error {
	start := time.Now()
attempts:
	for attempt := 0; ; attempt++ {
		txn, err := cl.Begin()
		if err != nil {
			if errors.Is(err, client.ErrGaveUp) {
				w.res.GaveUp++ // nothing written; no ledger impact
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
					w.res.GaveUp++
					return nil
				case errors.Is(err, client.ErrSnapshotLost):
					// A crash-restart raised the oracle floor past this
					// snapshot. Nothing was written; drop the dead snapshot
					// and re-run from a fresh BEGIN, on the same attempt
					// budget as conflicts so a restart storm stays bounded.
					w.res.SnapshotsLost++
					_ = txn.Abort() // best-effort: releases the GC pin
					if attempt+1 >= cfg.MaxAttempts {
						w.res.AbortedForGood++
						return nil
					}
					continue attempts
				default:
					w.res.Errors++
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
				w.res.ReadAnomalies++
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
				w.res.GaveUp++
				for _, k := range keys {
					w.unresolved[k]++
				}
				return nil
			}
			w.res.Errors++
			prog.addErr()
			return fmt.Errorf("txn commit: %w", err)
		}
		if res.Committed {
			w.res.Txns++
			for _, k := range keys {
				w.committed[k]++
			}
			lat := time.Since(start)
			w.lats = append(w.lats, lat)
			prog.record(lat)
			return nil
		}
		w.res.Aborts++
		if attempt+1 >= cfg.MaxAttempts {
			w.res.AbortedForGood++
			return nil
		}
		w.res.ConflictRetries++
	}
}
