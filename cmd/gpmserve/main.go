// Command gpmserve is the batched network KVS front-end over the simulated
// gpKVS store (§6.1): a TCP server that accumulates GET/SET/DEL requests
// into admission-controlled batches, dispatches each batch as the same GPU
// kernel transactions the gpKVS workload runs (HCL undo logging under GPM,
// CAP-fs/CAP-mm persistence as baselines), and replies only after the
// batch's persistence path completes. The keyspace partitions across
// -shards independent simulated nodes.
//
//	gpmserve -addr :7070 -mode GPM -shards 4      # serve until SIGTERM
//
// Crash-recovery correctness of the serving stack is judged by the chaos
// campaign (gpmchaos -serve), not by this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/gpm-sim/gpm/internal/serve"
	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// cliOptions mirrors the flag set for upfront validation: every rejection
// happens before a listener or shard exists, with exit 2 + usage.
type cliOptions struct {
	addr, mode, adminAddr, audit string
	shards, sets, batch          int
	batchWait, drain             time.Duration
}

// validateCLI checks value ranges. Mode names
// are resolved against the servable set, so a typo (or a mode like GPUfs
// that cannot serve) fails here rather than mid-listen.
func validateCLI(o cliOptions) error {
	if o.addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if _, err := serve.ModeByName(o.mode); err != nil {
		return fmt.Errorf("-mode: %w", err)
	}
	if o.shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", o.shards)
	}
	if o.sets < 1 {
		return fmt.Errorf("-sets must be >= 1, got %d", o.sets)
	}
	if o.batch < 1 {
		return fmt.Errorf("-batch must be >= 1, got %d", o.batch)
	}
	if o.batchWait < 0 {
		return fmt.Errorf("-batch-wait must be >= 0, got %s", o.batchWait)
	}
	if o.drain <= 0 {
		return fmt.Errorf("-drain-timeout must be > 0, got %s", o.drain)
	}
	return nil
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "TCP listen address")
		modeName  = flag.String("mode", "GPM", "persistence mode to serve under (GPM, GPM-eADR, GPM-NDP, CAP-fs, CAP-mm, CAP-eADR)")
		shards    = flag.Int("shards", 2, "keyspace partitions, each an independent simulated GPU+PM node")
		sets      = flag.Int("sets", 1<<10, "hash sets per shard (8 ways each)")
		batch     = flag.Int("batch", 256, "max client ops per kernel batch")
		batchWait = flag.Duration("batch-wait", 500*time.Microsecond, "upper bound on how long a starved pipeline holds a partial batch open")
		seed      = flag.Uint64("seed", 1, "shard RNG seed base")
		drain     = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget: pending batches flush, then stragglers are cut")
		metricsTo = flag.String("metrics", "", "write the telemetry metrics registry as TSV to this file on shutdown (flushed once when SIGTERM lands and again with final counts at exit)")
		adminAddr = flag.String("admin-addr", "", "admin HTTP listen address for /metrics, /healthz, /statusz, /debug/trace (empty = disabled)")
		auditPath = flag.String("audit", "", "append recovery audit events (crash/restart/verify/drain) as JSONL to this file")
	)
	flag.Parse()

	o := cliOptions{
		addr: *addr, mode: *modeName, adminAddr: *adminAddr, audit: *auditPath,
		shards: *shards, sets: *sets, batch: *batch,
		batchWait: *batchWait, drain: *drain,
	}
	if err := validateCLI(o); err != nil {
		fmt.Fprintln(os.Stderr, "gpmserve:", err)
		flag.Usage()
		os.Exit(2)
	}
	mode, _ := serve.ModeByName(*modeName)
	os.Exit(runServer(o, mode, *seed, *metricsTo))
}

// runServer serves until SIGINT/SIGTERM, then drains gracefully. The
// observability plane (admin endpoint, rolling windows, request tracing,
// audit trail) comes up with the listener and dies with the process.
func runServer(o cliOptions, mode workloads.Mode, seed uint64, metricsTo string) int {
	tel := telemetry.New()
	plane, err := serve.NewObsPlane(serve.ObsConfig{
		AdminAddr: o.adminAddr,
		AuditPath: o.audit,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpmserve:", err)
		return 2
	}
	defer plane.Stop()
	cfg := serve.Config{
		Mode:      mode,
		Shards:    o.shards,
		Sets:      o.sets,
		MaxBatch:  o.batch,
		BatchWait: o.batchWait,
		Seed:      seed,
		Telemetry: tel,
	}
	plane.Apply(&cfg)
	srv, err := serve.NewServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpmserve:", err)
		return 2
	}
	laddr, err := srv.Listen(o.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpmserve:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "gpmserve: %s, %d shards, batch %d/%s, listening on %s\n",
		mode, o.shards, o.batch, o.batchWait, laddr)
	if boundAdmin, err := plane.Start(srv); err != nil {
		fmt.Fprintln(os.Stderr, "gpmserve: admin:", err)
		return 2
	} else if boundAdmin != "" {
		fmt.Fprintf(os.Stderr, "gpmserve: admin endpoint on http://%s\n", boundAdmin)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "gpmserve: %s — draining (budget %s)\n", sig, o.drain)
		// Flush a metrics snapshot before draining so the counters survive
		// even if the drain stalls and the process is killed.
		flushMetrics(tel, metricsTo, " (pre-drain)")
		srv.Shutdown(o.drain)
		close(done)
	}()

	if err := srv.Serve(); err != nil {
		fmt.Fprintln(os.Stderr, "gpmserve:", err)
		return 1
	}
	<-done

	code := 0
	for _, sh := range srv.Shards() {
		if err := sh.Verify(); err != nil {
			fmt.Fprintf(os.Stderr, "gpmserve: shard %d failed post-drain verification: %v\n", sh.ID(), err)
			code = 1
		}
	}
	if err := flushMetrics(tel, metricsTo, ""); err != nil && code == 0 {
		code = 2
	}
	return code
}

// flushMetrics writes the registry as TSV to path ("" = disabled). Called
// twice on a signalled shutdown: once the moment the signal lands, and
// again after the drain with final counts.
func flushMetrics(tel *telemetry.Telemetry, path, note string) error {
	if path == "" {
		return nil
	}
	if err := os.WriteFile(path, []byte(tel.Metrics.TSV()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "gpmserve:", err)
		return err
	}
	fmt.Fprintf(os.Stderr, "metrics -> %s%s\n", path, note)
	return nil
}
