// External test package: boots real serve.Servers over loopback TCP (the
// serve package itself builds on client, so these tests live outside the
// package proper to keep the import graph acyclic).
package client_test

import (
	"testing"
	"time"

	"github.com/gpm-sim/gpm/internal/serve"
	"github.com/gpm-sim/gpm/internal/serve/client"
	"github.com/gpm-sim/gpm/internal/workloads"
)

func startServer(t *testing.T, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	if cfg.Mode == 0 {
		cfg.Mode = workloads.GPM
	}
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	if cfg.Sets == 0 {
		cfg.Sets = 64
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 16
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Shutdown(5 * time.Second) })
	return srv, addr.String()
}

// Plain positional mode against a v2 server: the byte stream is pure v1.
func TestClientPlainOps(t *testing.T) {
	_, addr := startServer(t, serve.Config{})
	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if cl.Proto() != 1 {
		t.Fatalf("plain client negotiated v%d, want v1", cl.Proto())
	}

	// Pipeline a burst of futures, then collect.
	var futs []*client.Future
	for i := uint64(1); i <= 20; i++ {
		f, err := cl.Set(i, i*10)
		if err != nil {
			t.Fatalf("Set: %v", err)
		}
		futs = append(futs, f)
	}
	for i, f := range futs {
		body, err := cl.Wait(f)
		if err != nil || body != "OK" {
			t.Fatalf("SET %d -> (%q, %v)", i+1, body, err)
		}
	}
	g, _ := cl.Get(7)
	d, _ := cl.Del(7)
	g2, _ := cl.Get(7)
	if body, _ := cl.Wait(g); body != "VALUE 70" {
		t.Errorf("GET -> %q, want VALUE 70", body)
	}
	if body, _ := cl.Wait(d); body != "OK" {
		t.Errorf("DEL -> %q", body)
	}
	if body, _ := cl.Wait(g2); body != "NOTFOUND" {
		t.Errorf("GET after DEL -> %q, want NOTFOUND", body)
	}
	if v, ok := client.IsValue("VALUE 70"); !ok || v != 70 {
		t.Errorf("IsValue parse broken: %d %v", v, ok)
	}
}

// v2 negotiation and the transaction surface: snapshot reads,
// read-your-writes, commit, conflict abort, explicit abort.
func TestClientTransactions(t *testing.T) {
	_, addr := startServer(t, serve.Config{Shards: 2})
	cl, err := client.Dial(client.Config{Addr: addr, Proto: client.MaxProto})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if cl.Proto() != 2 || cl.Shards() != 2 {
		t.Fatalf("negotiated v%d/%d shards, want v2/2", cl.Proto(), cl.Shards())
	}

	f, _ := cl.Set(2, 20)
	if body, err := cl.Wait(f); err != nil || body != "OK" {
		t.Fatalf("seed -> (%q, %v)", body, err)
	}

	txn, err := cl.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if v, found, err := txn.Get(2); err != nil || !found || v != 20 {
		t.Fatalf("txn.Get -> (%d, %v, %v), want 20", v, found, err)
	}
	txn.Set(4, 40) // same shard as 2 (mod 2)
	if v, found, err := txn.Get(4); err != nil || !found || v != 40 {
		t.Errorf("read-your-writes -> (%d, %v, %v), want 40", v, found, err)
	}
	txn.Del(2)
	if _, found, err := txn.Get(2); err != nil || found {
		t.Errorf("read-your-deletes -> found=%v err=%v, want absent", found, err)
	}
	res, err := txn.Commit()
	if err != nil || !res.Committed || res.CTS == 0 {
		t.Fatalf("Commit -> (%+v, %v), want committed with cts", res, err)
	}
	g, _ := cl.Get(4)
	if body, _ := cl.Wait(g); body != "VALUE 40" {
		t.Errorf("committed write -> %q", body)
	}

	// Conflict: a stale transaction loses to an interleaved commit.
	stale, err := cl.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	f, _ = cl.Set(4, 41)
	if body, err := cl.Wait(f); err != nil || body != "OK" {
		t.Fatalf("interleaved SET -> (%q, %v)", body, err)
	}
	stale.Set(4, 99)
	res, err = stale.Commit()
	if err != nil {
		t.Fatalf("stale Commit: %v", err)
	}
	if res.Committed || res.ConflictKey != 4 {
		t.Errorf("stale commit -> %+v, want abort on key 4", res)
	}

	// Abort leaves no trace and finishes the txn.
	ab, err := cl.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	ab.Set(6, 60)
	if err := ab.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if _, err := ab.Commit(); err == nil {
		t.Error("Commit after Abort succeeded, want ErrTxnFinished")
	}
	g, _ = cl.Get(6)
	if body, _ := cl.Wait(g); body != "NOTFOUND" {
		t.Errorf("aborted write leaked -> %q", body)
	}
}

// Reliable mode rides a crash-restart: the RETRY verdict resends until the
// shard recovers, and every mutation applies exactly once.
func TestClientReliableCrashRetry(t *testing.T) {
	srv, addr := startServer(t, serve.Config{Shards: 1})
	cl, err := client.Dial(client.Config{
		Addr: addr, Reliable: true, CID: 9, MaxRetries: 30,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	f, _ := cl.Set(3, 30)
	if body, err := cl.Wait(f); err != nil || body != "OK" {
		t.Fatalf("seed -> (%q, %v)", body, err)
	}
	srv.Shards()[0].SetCrashPlan(&serve.ShardCrashPlan{ApplyIndex: 1, Point: serve.CrashBeforeKernel})

	f, _ = cl.Set(5, 50)
	body, err := cl.Wait(f)
	if err != nil || body != "OK" {
		t.Fatalf("crashed SET resolved (%q, %v), want OK after retries", body, err)
	}
	if cl.Stats().Retries == 0 {
		t.Error("no retries recorded across the crash")
	}
	g, _ := cl.Get(5)
	if body, _ := cl.Wait(g); body != "VALUE 50" {
		t.Errorf("recovered value -> %q", body)
	}
	g, _ = cl.Get(3)
	if body, _ := cl.Wait(g); body != "VALUE 30" {
		t.Errorf("pre-crash value -> %q", body)
	}
}

// A BEGIN issued after a write's acknowledgement must read that write: the
// oracle's stable floor has to cover every acknowledged commit unit before
// the reply leaves the server.
func TestBeginSeesAcknowledgedWrites(t *testing.T) {
	_, addr := startServer(t, serve.Config{Shards: 1})
	cl, err := client.Dial(client.Config{Addr: addr, Proto: client.MaxProto})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	for i := uint64(1); i <= 300; i++ {
		f, _ := cl.Set(5, i)
		if body, err := cl.Wait(f); err != nil || body != "OK" {
			t.Fatalf("SET %d -> (%q, %v)", i, body, err)
		}
		txn, err := cl.Begin()
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		if v, found, err := txn.Get(5); err != nil || !found || v != i {
			t.Fatalf("after acked SET 5=%d, txn.Get -> (%d, %v, %v)", i, v, found, err)
		}
		if err := txn.Abort(); err != nil {
			t.Fatalf("Abort: %v", err)
		}
	}
}
