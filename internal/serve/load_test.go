package serve

import (
	"sync"
	"testing"
	"time"

	"github.com/gpm-sim/gpm/internal/sim"
	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// The zipfian generator must be seeded-deterministic, in-range, properly
// skewed (the top rank dominates), and scrambled so the hot set does not
// pile onto one key-mod-N shard.
func TestZipfGenerator(t *testing.T) {
	const n, draws = 4096, 200_000
	z := newZipfGen(n, 0.99)
	rng := sim.NewRNG(42)
	counts := make(map[uint64]int)
	var shardHits [4]int
	for i := 0; i < draws; i++ {
		k := z.next(rng)
		if k < 1 || k > n {
			t.Fatalf("draw %d out of range: %d", i, k)
		}
		counts[k]++
		shardHits[k%4]++
	}

	// Skew: the single hottest key takes a large share (theta=0.99 over
	// n=4096 gives the top rank ~11% of the mass), and the distribution is
	// far from uniform.
	var max int
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if frac := float64(max) / draws; frac < 0.05 {
		t.Errorf("hottest key has %.1f%% of draws, want >= 5%% (not zipfian?)", frac*100)
	}
	if len(counts) < 100 {
		t.Errorf("only %d distinct keys drawn, want a long tail", len(counts))
	}

	// Scramble: hot mass spreads across key-mod-4 partitions; no shard may
	// hold more than ~70% of the draws.
	for s, hits := range shardHits {
		if float64(hits)/draws > 0.7 {
			t.Errorf("shard %d got %.1f%% of zipf draws — scramble not spreading", s, 100*float64(hits)/draws)
		}
	}

	// Determinism: same seed, same stream.
	z2 := newZipfGen(n, 0.99)
	rng2 := sim.NewRNG(42)
	z3 := newZipfGen(n, 0.99)
	rng3 := sim.NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a, b := z2.next(rng2), z3.next(rng3); a != b {
			t.Fatalf("draw %d diverged: %d vs %d", i, a, b)
		}
	}
}

// Lower theta must flatten the distribution.
func TestZipfThetaControlsSkew(t *testing.T) {
	const n, draws = 1024, 100_000
	top := func(theta float64) float64 {
		z := newZipfGen(n, theta)
		rng := sim.NewRNG(7)
		counts := make(map[uint64]int)
		for i := 0; i < draws; i++ {
			counts[z.next(rng)]++
		}
		var max int
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / draws
	}
	hot, mild := top(0.99), top(0.5)
	if hot <= mild {
		t.Errorf("top-key share theta=0.99 (%.3f) should exceed theta=0.5 (%.3f)", hot, mild)
	}
}

// LoadConfig validation: zipf defaults and rejections, and plain workers
// kept off the transaction workers' keys and client IDs.
func TestLoadConfigDistValidation(t *testing.T) {
	c := LoadConfig{Addr: "x", Ops: 1, Dist: DistZipf}
	if err := c.Normalize(); err != nil {
		t.Fatalf("zipf defaults: %v", err)
	}
	if c.Theta != 0.99 {
		t.Errorf("default theta = %g, want 0.99", c.Theta)
	}
	bad := LoadConfig{Addr: "x", Ops: 1, Dist: "pareto"}
	if err := bad.Normalize(); err == nil {
		t.Error("unknown dist should be rejected")
	}
	badTheta := LoadConfig{Addr: "x", Ops: 1, Dist: DistZipf, Theta: 1.5}
	if err := badTheta.Normalize(); err == nil {
		t.Error("theta >= 1 should be rejected")
	}
	for _, bad := range []LoadConfig{
		{Addr: "x", Conns: -1, Ops: 1},
		{Addr: "x", Ops: 1, Txns: 1, KeySpace: TxnKeyBase},
		{Addr: "x", Ops: 1, Txns: 1, Conns: txnCIDBase + 1},
	} {
		if err := bad.Normalize(); err == nil {
			t.Errorf("%+v should be rejected", bad)
		}
	}
}

// Progress snapshots arrive on the configured cadence with sane counters:
// Done never regresses, never exceeds Total, and inflight is non-negative.
// The final LoadResult must be unaffected by progress tracking.
func TestRunLoadProgress(t *testing.T) {
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 2, Sets: 256, MaxBatch: 32,
		BatchWait: 200 * time.Microsecond, Telemetry: telemetry.New(),
	})
	defer srv.Shutdown(5 * time.Second)

	var mu sync.Mutex
	var snaps []LoadProgress
	res, err := RunLoad(LoadConfig{
		Addr: addr, Conns: 4, Ops: 4000, Window: 8, GetFraction: 0.5,
		Seed: 11, Progress: 5 * time.Millisecond,
		OnProgress: func(p LoadProgress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if res.Ops != 4000 || res.Errors != 0 {
		t.Fatalf("load: %d ops, %d errors", res.Ops, res.Errors)
	}
	mu.Lock()
	defer mu.Unlock()
	// The run may finish inside the first interval on a fast machine, so a
	// zero-snapshot outcome is only reportable, not fatal.
	if len(snaps) == 0 {
		t.Skip("load finished before the first progress interval")
	}
	var prev int64
	for i, p := range snaps {
		if p.Done < prev || p.Done > p.Total || p.Total != 4000 {
			t.Errorf("snapshot %d: done %d (prev %d) of total %d", i, p.Done, prev, p.Total)
		}
		if p.Inflight < 0 {
			t.Errorf("snapshot %d: negative inflight %d", i, p.Inflight)
		}
		if p.Elapsed <= 0 {
			t.Errorf("snapshot %d: elapsed %s", i, p.Elapsed)
		}
		prev = p.Done
	}
}
