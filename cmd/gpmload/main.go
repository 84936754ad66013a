// Command gpmload is the closed-loop load generator for gpmserve, a thin
// front end over serve.RunLoad: -conns connections each keep -window
// requests pipelined, sending a seeded deterministic GET/SET/DEL mix, and
// report client-observed throughput and latency percentiles. With -txn the
// connections run read-modify-write increment transactions instead and
// report the commit/abort ledger.
//
//	gpmload -addr 127.0.0.1:7070 -ops 100000 -conns 8
//	gpmload -addr 127.0.0.1:7070 -ops 10000 -get 0.9 -json
//	gpmload -addr 127.0.0.1:7070 -dist zipf -theta 0.99 -json
//	gpmload -addr 127.0.0.1:7070 -ops 1000000 -progress 1s   # live status
//	gpmload -addr 127.0.0.1:7070 -retry                      # exactly-once client
//	gpmload -addr 127.0.0.1:7070 -txn -txn-size 4            # RMW transactions
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/gpm-sim/gpm/internal/obs"
	"github.com/gpm-sim/gpm/internal/serve"
)

// cliOptions mirrors the flag set for upfront validation (exit 2 + usage on
// any bad value, before a single connection is dialed).
type cliOptions struct {
	addr, dist       string
	ops              int64
	conns, window    int
	getFrac, delFrac float64
	theta            float64
	keySpace         uint64
	timeout          time.Duration
	progress         time.Duration
	retry            bool
	maxRetries       int
	retryBackoff     time.Duration
	txn              bool
	txnSize          int
}

func validateCLI(o cliOptions) error {
	if o.addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if o.ops < 1 {
		return fmt.Errorf("-ops must be >= 1, got %d", o.ops)
	}
	if o.conns < 1 {
		return fmt.Errorf("-conns must be >= 1, got %d", o.conns)
	}
	if o.window < 1 {
		return fmt.Errorf("-window must be >= 1, got %d", o.window)
	}
	if o.getFrac < 0 || o.delFrac < 0 || o.getFrac+o.delFrac > 1 {
		return fmt.Errorf("-get/-del fractions must be >= 0 and sum to <= 1, got %g + %g", o.getFrac, o.delFrac)
	}
	if o.keySpace < 1 {
		return fmt.Errorf("-keyspace must be >= 1, got %d", o.keySpace)
	}
	if o.timeout <= 0 {
		return fmt.Errorf("-timeout must be > 0, got %s", o.timeout)
	}
	if o.progress < 0 {
		return fmt.Errorf("-progress must be >= 0 (0 = off), got %s", o.progress)
	}
	if o.maxRetries < 0 {
		return fmt.Errorf("-max-retries must be >= 0 (0 = default), got %d", o.maxRetries)
	}
	if o.retryBackoff < 0 {
		return fmt.Errorf("-retry-backoff must be >= 0 (0 = default), got %s", o.retryBackoff)
	}
	if !o.retry && (o.maxRetries != 0 || o.retryBackoff != 0) {
		return fmt.Errorf("-max-retries/-retry-backoff require -retry")
	}
	if o.txnSize < 0 || (!o.txn && o.txnSize != 0) {
		return fmt.Errorf("-txn-size requires -txn and must be >= 1, got %d", o.txnSize)
	}
	if o.txn && (o.getFrac != 0.5 || o.delFrac != 0.05) {
		return fmt.Errorf("-get/-del do not apply with -txn (transactions are RMW increments)")
	}
	switch o.dist {
	case serve.DistUniform:
		if o.theta != 0 {
			return fmt.Errorf("-theta only applies with -dist zipf")
		}
	case serve.DistZipf:
		if o.theta < 0 || o.theta >= 1 {
			return fmt.Errorf("-theta must be in (0, 1) (0 = 0.99 default), got %g", o.theta)
		}
	default:
		return fmt.Errorf("-dist must be %q or %q, got %q", serve.DistUniform, serve.DistZipf, o.dist)
	}
	return nil
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "gpmserve address")
		ops      = flag.Int64("ops", 10000, "total operations across connections")
		conns    = flag.Int("conns", 8, "concurrent client connections")
		window   = flag.Int("window", 16, "pipelined outstanding requests per connection")
		getFrac  = flag.Float64("get", 0.5, "GET fraction of the op mix")
		delFrac  = flag.Float64("del", 0.05, "DEL fraction of the op mix")
		keySpace = flag.Uint64("keyspace", 4096, "keys drawn from [1, keyspace]; with -txn, from a range as wide above every plain key")
		dist     = flag.String("dist", serve.DistUniform, "key distribution: uniform or zipf")
		theta    = flag.Float64("theta", 0, "zipf skew in (0, 1); 0 = 0.99 (YCSB default); requires -dist zipf")
		seed     = flag.Uint64("seed", 1, "op-mix RNG seed base (per-connection streams derive from it)")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-connection dial/IO deadline")
		progress = flag.Duration("progress", 0, "print a status line to stderr this often while running (0 = off)")
		asJSON   = flag.Bool("json", false, "emit the result as JSON")
		retry    = flag.Bool("retry", false, "exactly-once client: tag requests with IDs, resend on RETRY, reconnect on transport failure")
		maxRetry = flag.Int("max-retries", 0, "resend attempts per op and per reconnect (0 = 8; requires -retry)")
		backoff  = flag.Duration("retry-backoff", 0, "retry backoff base, doubles per attempt (0 = 2ms; requires -retry)")
		txn      = flag.Bool("txn", false, "drive snapshot-isolation RMW increment transactions instead of plain ops (-ops counts transactions)")
		txnSize  = flag.Int("txn-size", 0, "keys per transaction (0 = 2; requires -txn)")
	)
	flag.Parse()

	o := cliOptions{
		addr: *addr, dist: *dist, ops: *ops, conns: *conns, window: *window,
		getFrac: *getFrac, delFrac: *delFrac, theta: *theta,
		keySpace: *keySpace, timeout: *timeout, progress: *progress,
		retry: *retry, maxRetries: *maxRetry, retryBackoff: *backoff,
		txn: *txn, txnSize: *txnSize,
	}
	if err := validateCLI(o); err != nil {
		fmt.Fprintln(os.Stderr, "gpmload:", err)
		flag.Usage()
		os.Exit(2)
	}
	cfg := serve.LoadConfig{
		Addr:         o.addr,
		Dist:         o.dist,
		Theta:        o.theta,
		Seed:         *seed,
		Timeout:      o.timeout,
		Progress:     o.progress,
		Retry:        o.retry,
		MaxRetries:   o.maxRetries,
		RetryBackoff: o.retryBackoff,
	}
	unit := "ops"
	if o.txn {
		unit = "txns"
		cfg.TxnConns, cfg.Txns, cfg.TxnSize, cfg.TxnKeySpace = o.conns, o.ops, o.txnSize, o.keySpace
	} else {
		cfg.Conns, cfg.Ops, cfg.Window, cfg.KeySpace = o.conns, o.ops, o.window, o.keySpace
		cfg.GetFraction, cfg.DelFraction = o.getFrac, o.delFrac
	}
	// One -progress status line: cumulative completion, plus rate and p99
	// over just the last interval (a rolling window).
	cfg.OnProgress = func(p serve.LoadProgress) {
		fmt.Fprintf(os.Stderr, "gpmload: %8s  %d/%d %s  %s %s/s  %d inflight  p99 %.0fµs  %d retries\n",
			p.Elapsed.Round(100*time.Millisecond), p.Done, p.Total, unit,
			obs.FormatRate(p.OpsPerSec), unit, p.Inflight, p.P99US, p.Retries)
	}

	res, err := serve.RunLoad(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpmload:", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "gpmload:", err)
			os.Exit(2)
		}
	} else {
		printResult(res, o.retry)
	}
	if t := res.Txn; res.Errors > 0 || (t != nil && (t.Errors > 0 || t.ReadAnomalies > 0)) {
		os.Exit(1)
	}
}

// printResult renders a run as text: the plain workers' line or the
// transaction workers' ledger, then the exactly-once counters.
func printResult(res *serve.LoadResult, retry bool) {
	if t := res.Txn; t != nil {
		fmt.Printf("%d txns in %v: %.0f txns/s, p50 %v p95 %v p99 %v\n",
			t.Txns, res.Elapsed.Round(time.Millisecond), t.Throughput, t.P50, t.P95, t.P99)
		fmt.Printf("conflicts: %d aborts, %d retried, %d dropped; %d unresolved, %d snapshots lost, %d read anomalies\n",
			t.Aborts, t.ConflictRetries, t.AbortedForGood, t.GaveUp, t.SnapshotsLost, t.ReadAnomalies)
	} else {
		fmt.Printf("%d ops in %v: %.0f ops/s, p50 %v p95 %v p99 %v, %d hits %d misses %d errors\n",
			res.Ops, res.Elapsed.Round(time.Millisecond), res.Throughput,
			res.P50, res.P95, res.P99, res.Hits, res.Misses, res.Errors)
	}
	if retry {
		fmt.Printf("exactly-once: %d retries, %d reconnects, %d gave up\n",
			res.Retries, res.Reconnects, res.GaveUp)
	}
}
