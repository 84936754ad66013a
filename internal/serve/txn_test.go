package serve

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// HELLO negotiates the protocol: capped at the server's max, refused below
// 1, and a connection that never sends it stays v1 (txn verbs unknown).
func TestHelloNegotiation(t *testing.T) {
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 2, Sets: 64, MaxBatch: 8,
	})
	defer srv.Shutdown(5 * time.Second)
	br, c := dial(t, addr)
	defer c.Close()
	rt := func(req string) string { return roundTrip(t, c, br, req) }

	// A v1 connection does not know the v2 verbs.
	if got := rt("TXN"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("TXN before HELLO -> %q, want ERR", got)
	}
	if got := rt("HELLO 0"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("HELLO 0 -> %q, want ERR", got)
	}
	// Asking beyond the max negotiates down to it.
	if got := rt("HELLO 99"); got != "HELLO 2 2" {
		t.Errorf("HELLO 99 -> %q, want HELLO 2 2", got)
	}
	if got := rt("TXN"); !strings.HasPrefix(got, "BEGIN ") {
		t.Errorf("TXN after HELLO -> %q, want BEGIN", got)
	}

	// A second connection negotiating exactly v1 stays v1.
	br2, c2 := dial(t, addr)
	defer c2.Close()
	rt2 := func(req string) string { return roundTrip(t, c2, br2, req) }
	if got := rt2("HELLO 1"); got != "HELLO 1 2" {
		t.Errorf("HELLO 1 -> %q, want HELLO 1 2", got)
	}
	if got := rt2("TXN"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("TXN on v1 -> %q, want ERR", got)
	}
	if got := rt2("SET 7 70"); got != "OK" {
		t.Errorf("v1 SET -> %q", got)
	}
}

// beginTxn negotiates v2 (idempotent) and opens a transaction.
func beginTxn(t *testing.T, rt func(string) string) uint64 {
	t.Helper()
	got := rt("TXN")
	rest, ok := strings.CutPrefix(got, "BEGIN ")
	if !ok {
		t.Fatalf("TXN -> %q, want BEGIN <snap>", got)
	}
	snap, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		t.Fatalf("TXN -> %q: %v", got, err)
	}
	return snap
}

// Snapshot reads stay stable while later commits land, writes are
// invisible until COMMIT, and the committed write set is atomic.
func TestTxnSnapshotIsolation(t *testing.T) {
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 2, Sets: 64, MaxBatch: 8,
	})
	defer srv.Shutdown(5 * time.Second)
	br, c := dial(t, addr)
	defer c.Close()
	rt := func(req string) string { return roundTrip(t, c, br, req) }

	if got := rt("HELLO 2"); got != "HELLO 2 2" {
		t.Fatalf("HELLO -> %q", got)
	}
	if got := rt("SET 2 20"); got != "OK" {
		t.Fatalf("seed -> %q", got)
	}
	snap := beginTxn(t, rt)
	if got := rt(fmt.Sprintf("GET 2 @%d", snap)); got != "VALUE 20" {
		t.Fatalf("snapshot read -> %q, want VALUE 20", got)
	}
	// A later plain SET does not disturb the open snapshot.
	if got := rt("SET 2 21"); got != "OK" {
		t.Fatalf("overwrite -> %q", got)
	}
	if got := rt("GET 2"); got != "VALUE 21" {
		t.Errorf("latest read -> %q, want VALUE 21", got)
	}
	if got := rt(fmt.Sprintf("GET 2 @%d", snap)); got != "VALUE 20" {
		t.Errorf("snapshot read after overwrite -> %q, want VALUE 20 (repeatable)", got)
	}
	// Transactions commit atomically: both keys (same shard: mod 2) or none.
	snap2 := beginTxn(t, rt)
	reply := rt(fmt.Sprintf("COMMIT %d S 4 40 D 6", snap2))
	if !strings.HasPrefix(reply, "COMMITTED ") {
		t.Fatalf("COMMIT -> %q", reply)
	}
	cts, _ := strconv.ParseUint(strings.TrimPrefix(reply, "COMMITTED "), 10, 64)
	if cts <= snap2 {
		t.Errorf("commit ts %d not past snapshot %d", cts, snap2)
	}
	if got := rt("GET 4"); got != "VALUE 40" {
		t.Errorf("committed write -> %q, want VALUE 40", got)
	}
	// Read-only commit resolves instantly at its own snapshot.
	snap3 := beginTxn(t, rt)
	if got := rt(fmt.Sprintf("COMMIT %d", snap3)); got != "COMMITTED "+strconv.FormatUint(snap3, 10) {
		t.Errorf("read-only COMMIT -> %q", got)
	}
	// ABORT releases without writing.
	snap4 := beginTxn(t, rt)
	if got := rt(fmt.Sprintf("ABORT %d", snap4)); got != "ABORTED" {
		t.Errorf("ABORT -> %q", got)
	}
	// Write-set sanity errors.
	snap5 := beginTxn(t, rt)
	if got := rt(fmt.Sprintf("COMMIT %d S 3 30 S 4 40", snap5)); !strings.Contains(got, "spans shards") {
		t.Errorf("cross-shard COMMIT -> %q, want spans-shards ERR", got)
	}
}

// Two transactions from one snapshot, COMMITs pipelined into the same
// batching window: disjoint write sets both commit (sharing an epoch);
// overlapping write sets abort the second, first-committer-wins.
func TestTxnSameEpochConflicts(t *testing.T) {
	tel := telemetry.New()
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 16,
		BatchWait: 50 * time.Millisecond, Telemetry: tel,
	})
	defer srv.Shutdown(5 * time.Second)
	br, c := dial(t, addr)
	defer c.Close()
	rt := func(req string) string { return roundTrip(t, c, br, req) }

	if got := rt("HELLO 2"); got != "HELLO 2 1" {
		t.Fatalf("HELLO -> %q", got)
	}
	snapA := beginTxn(t, rt)
	snapB := beginTxn(t, rt)

	// Disjoint write sets, pipelined without waiting: both must commit.
	if _, err := fmt.Fprintf(c, "COMMIT %d S 11 1 S 13 1\nCOMMIT %d S 12 1 S 14 1\n", snapA, snapB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSpace(line); !strings.HasPrefix(got, "COMMITTED ") {
			t.Fatalf("disjoint commit %d -> %q, want COMMITTED", i, got)
		}
	}

	// Overlapping write sets: key 15 in both. First commits, second aborts.
	snapC := beginTxn(t, rt)
	snapD := beginTxn(t, rt)
	if _, err := fmt.Fprintf(c, "COMMIT %d S 15 1 S 17 1\nCOMMIT %d S 15 2 S 19 1\n", snapC, snapD); err != nil {
		t.Fatal(err)
	}
	var verdicts []string
	for i := 0; i < 2; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		verdicts = append(verdicts, strings.TrimSpace(line))
	}
	if !strings.HasPrefix(verdicts[0], "COMMITTED ") {
		t.Errorf("first overlapping commit -> %q, want COMMITTED", verdicts[0])
	}
	if verdicts[1] != "ABORT 15" {
		t.Errorf("second overlapping commit -> %q, want ABORT 15", verdicts[1])
	}
	// The losing write set left nothing behind.
	if got := rt("GET 19"); got != "NOTFOUND" {
		t.Errorf("aborted txn's key -> %q, want NOTFOUND", got)
	}
	if got := rt("GET 15"); got != "VALUE 1" {
		t.Errorf("winning txn's key -> %q, want VALUE 1", got)
	}
	if n := tel.Registry().Counter("serve.shard0.txn_commits").Value(); n != 3 {
		t.Errorf("txn_commits = %d, want 3", n)
	}
	if n := tel.Registry().Counter("serve.shard0.txn_aborts").Value(); n != 1 {
		t.Errorf("txn_aborts = %d, want 1", n)
	}
}

// A retried COMMIT replays its original verdict — COMMITTED with the same
// timestamp, or the same ABORT — without touching the store again.
func TestTxnRetryReplaysVerdict(t *testing.T) {
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 8,
	})
	br, c := dial(t, addr)
	defer c.Close()
	rt := func(req string) string { return roundTrip(t, c, br, req) }

	if got := rt("HELLO 2"); got != "HELLO 2 1" {
		t.Fatalf("HELLO -> %q", got)
	}
	snap := beginTxn(t, rt)
	first := rt(fmt.Sprintf("@1.1 COMMIT %d S 5 50", snap))
	if !strings.HasPrefix(first, "@1.1 COMMITTED ") {
		t.Fatalf("identified COMMIT -> %q", first)
	}
	for i := 0; i < 3; i++ {
		if got := rt(fmt.Sprintf("@1.1 COMMIT %d S 5 50", snap)); got != first {
			t.Errorf("COMMIT retry %d -> %q, want replay %q", i, got, first)
		}
	}
	// Same ID with a different payload is an error, not a replay.
	if got := rt(fmt.Sprintf("@1.1 COMMIT %d S 5 51", snap)); !strings.Contains(got, "different payload") {
		t.Errorf("COMMIT id reuse -> %q, want different-payload ERR", got)
	}

	// Force an abort, then retry it: the ABORT verdict must replay too.
	if got := rt("SET 7 1"); got != "OK" {
		t.Fatalf("seed -> %q", got)
	}
	staleSnap := snap // key 7 committed after this snapshot
	abort := rt(fmt.Sprintf("@1.2 COMMIT %d S 7 99", staleSnap))
	if abort != "@1.2 ABORT 7" {
		t.Fatalf("stale COMMIT -> %q, want @1.2 ABORT 7", abort)
	}
	for i := 0; i < 3; i++ {
		if got := rt(fmt.Sprintf("@1.2 COMMIT %d S 7 99", staleSnap)); got != abort {
			t.Errorf("ABORT retry %d -> %q, want replay %q", i, got, abort)
		}
	}
	if got := rt("GET 7"); got != "VALUE 1" {
		t.Errorf("aborted commit leaked: GET 7 -> %q, want VALUE 1", got)
	}
	c.Close()
	srv.Shutdown(5 * time.Second)
	assertExactlyOnce(t, srv)
}

// A torn final line — a COMMIT cut mid-write by a dying connection — must
// never execute, even when the torn prefix parses as a valid SHORTER
// commit. Executing it would stage a one-key transaction under the full
// request's ID; the client's retry would then attach to it and be acked
// COMMITTED while the cut keys were silently lost.
func TestTornCommitLineNeverExecutes(t *testing.T) {
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 8,
	})
	br, c := dial(t, addr)
	rt := func(req string) string { return roundTrip(t, c, br, req) }
	if got := rt("HELLO 2"); got != "HELLO 2 1" {
		t.Fatalf("HELLO -> %q", got)
	}
	snap := beginTxn(t, rt)
	// The connection dies mid-COMMIT: only the first write survives on the
	// wire, and the truncation lands on a token boundary.
	if _, err := fmt.Fprintf(c, "@1.1 COMMIT %d S 5 1", snap); err != nil {
		t.Fatalf("torn write: %v", err)
	}
	c.Close()
	time.Sleep(50 * time.Millisecond) // let the server drain the dead conn

	// The client never saw an ack, so it retries the WHOLE line.
	br2, c2 := dial(t, addr)
	defer c2.Close()
	rt2 := func(req string) string { return roundTrip(t, c2, br2, req) }
	if got := rt2("HELLO 2"); got != "HELLO 2 1" {
		t.Fatalf("HELLO (retry conn) -> %q", got)
	}
	verdict := rt2(fmt.Sprintf("@1.1 COMMIT %d S 5 1 S 6 1", snap))
	if !strings.HasPrefix(verdict, "@1.1 COMMITTED ") {
		t.Fatalf("retried full COMMIT -> %q, want COMMITTED", verdict)
	}
	for _, key := range []uint64{5, 6} {
		if got := rt2(fmt.Sprintf("GET %d", key)); got != "VALUE 1" {
			t.Errorf("GET %d -> %q, want VALUE 1 (torn prefix must not have won)", key, got)
		}
	}
	c2.Close()
	srv.Shutdown(5 * time.Second)
	assertExactlyOnce(t, srv)
}

// A duplicate carrying the same ID as an in-flight request but a DIFFERENT
// payload must be rejected, not attached: attaching would acknowledge this
// payload with the pending one's verdict. The window and abort ledgers
// already reject such reuse; pending must too.
func TestDedupPendingRejectsDifferentPayload(t *testing.T) {
	d := newDedupState(8)
	orig := &request{op: 'C', rid: ReqID{CID: 1, Seq: 1}, fpr: 42, done: make(chan string, 1)}
	d.register(orig)

	dup := &request{op: 'C', rid: ReqID{CID: 1, Seq: 1}, fpr: 99, done: make(chan string, 1)}
	if v, reply := d.check(dup); v != dedupReject || !strings.Contains(reply, "different payload") {
		t.Errorf("pending id reuse -> (%d, %q), want reject with different-payload ERR", v, reply)
	}
	same := &request{op: 'C', rid: ReqID{CID: 1, Seq: 1}, fpr: 42, done: make(chan string, 1)}
	if v, _ := d.check(same); v != dedupAttach {
		t.Errorf("same-payload duplicate -> %d, want attach", v)
	}
	if len(orig.dups) != 1 {
		t.Errorf("original has %d attached waiters, want 1", len(orig.dups))
	}
}

// The hwm-absorb path answers an aged-out COMMIT retry "COMMITTED 0" (the
// commit survived, its timestamp did not), and an aged-out aborted COMMIT
// keeps replaying ABORT from the permanent ledger — never absorbed as OK.
func TestTxnDedupAbsorbAndAbortLedger(t *testing.T) {
	d := newDedupState(2) // tiny window so entries age out fast
	mk := func(seq uint64, op byte) *request {
		return &request{op: op, rid: ReqID{CID: 1, Seq: seq}, fpr: 42, done: make(chan string, 1)}
	}
	// Seq 1: a committed transaction COMMIT.
	c1 := mk(1, 'C')
	d.register(c1)
	d.commit(c1, "@1.1 COMMITTED 77")
	// Seq 2: an aborted COMMIT (decided, never committed).
	d.rememberAbort(ReqID{CID: 1, Seq: 2}, 43, "@1.2 ABORT 9")
	// Age both window entries out.
	for seq := uint64(3); seq <= 6; seq++ {
		r := mk(seq, 'S')
		d.register(r)
		d.commit(r, "@1.x OK")
	}
	// The committed COMMIT's window entry is gone; its seq is under the
	// hwm, so the verdict is absorbed with the timestamp elided.
	v, reply := d.check(mk(1, 'C'))
	if v != dedupReplay || reply != "@1.1 COMMITTED 0" {
		t.Errorf("aged committed COMMIT -> (%d, %q), want replay COMMITTED 0", v, reply)
	}
	// The aborted COMMIT replays from the ledger even though its window
	// entry aged out and later seqs advanced the hwm past it.
	ab := mk(2, 'C')
	ab.fpr = 43
	v, reply = d.check(ab)
	if v != dedupReplay || reply != "@1.2 ABORT 9" {
		t.Errorf("aged aborted COMMIT -> (%d, %q), want replay ABORT 9", v, reply)
	}
}

// The oracle never hands out a timestamp at or below anything it issued
// before a crash: commit timestamps stay monotone across crash-restart.
func TestOracleMonotoneAcrossRestart(t *testing.T) {
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 8,
	})
	br, c := dial(t, addr)
	defer c.Close()
	rt := func(req string) string { return roundTrip(t, c, br, req) }

	if got := rt("HELLO 2"); got != "HELLO 2 1" {
		t.Fatalf("HELLO -> %q", got)
	}
	snap := beginTxn(t, rt)
	reply := rt(fmt.Sprintf("COMMIT %d S 3 30", snap))
	if !strings.HasPrefix(reply, "COMMITTED ") {
		t.Fatalf("COMMIT -> %q", reply)
	}
	preCTS, _ := strconv.ParseUint(strings.TrimPrefix(reply, "COMMITTED "), 10, 64)

	// Crash the shard on its next mutation epoch; the identified SET rides
	// it, gets RETRY, and the retry drives recovery.
	srv.Shards()[0].SetCrashPlan(&ShardCrashPlan{ApplyIndex: 1, Point: CrashBeforeKernel})
	if got := rt("@1.1 SET 5 50"); got != "@1.1 RETRY" {
		t.Fatalf("crashed SET -> %q, want RETRY", got)
	}
	if got := retryTrip(t, rt, "@1.1 SET 5 50"); got != "@1.1 OK" {
		t.Fatalf("retry after restart -> %q", got)
	}

	snap2 := beginTxn(t, rt)
	reply2 := rt(fmt.Sprintf("COMMIT %d S 7 70", snap2))
	if !strings.HasPrefix(reply2, "COMMITTED ") {
		t.Fatalf("post-restart COMMIT -> %q", reply2)
	}
	postCTS, _ := strconv.ParseUint(strings.TrimPrefix(reply2, "COMMITTED "), 10, 64)
	if postCTS <= preCTS {
		t.Errorf("post-restart commit ts %d <= pre-crash ts %d: oracle regressed", postCTS, preCTS)
	}
	if hwm := srv.Shards()[0].RecoveredOracleHWM(); hwm == 0 {
		t.Error("no durable oracle reservation recovered")
	}
	// Pre-crash snapshots are gone: the MVCC floor rose past them.
	if got := rt(fmt.Sprintf("GET 3 @%d", snap)); got != "ERR snapshot too old" {
		t.Errorf("pre-crash snapshot read -> %q, want ERR snapshot too old", got)
	}
	c.Close()
	srv.Shutdown(5 * time.Second)
	assertExactlyOnce(t, srv)
}

// GC never reclaims a version an open snapshot can still read: the
// snapshot registry pins the watermark, and only releasing the snapshot
// lets the floor pass it.
func TestTxnGCWatermarkSafety(t *testing.T) {
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 8,
	})
	defer srv.Shutdown(5 * time.Second)
	br, c := dial(t, addr)
	defer c.Close()
	rt := func(req string) string { return roundTrip(t, c, br, req) }

	if got := rt("HELLO 2"); got != "HELLO 2 1" {
		t.Fatalf("HELLO -> %q", got)
	}
	if got := rt("SET 9 1"); got != "OK" {
		t.Fatalf("seed -> %q", got)
	}
	snap := beginTxn(t, rt)

	// Push far more than mvccFloorEvery epoch commits past the snapshot.
	for i := 0; i < 3*mvccFloorEvery; i++ {
		if got := rt(fmt.Sprintf("SET 9 %d", i+2)); got != "OK" {
			t.Fatalf("churn SET -> %q", got)
		}
	}
	// The open snapshot still answers with its version.
	if got := rt(fmt.Sprintf("GET 9 @%d", snap)); got != "VALUE 1" {
		t.Errorf("pinned snapshot read -> %q, want VALUE 1", got)
	}
	if got := rt(fmt.Sprintf("ABORT %d", snap)); got != "ABORTED" {
		t.Fatalf("ABORT -> %q", got)
	}
	// With the pin gone, more churn lets GC pass the old snapshot.
	for i := 0; i < 3*mvccFloorEvery; i++ {
		if got := rt(fmt.Sprintf("SET 9 %d", i+100)); got != "OK" {
			t.Fatalf("churn SET -> %q", got)
		}
	}
	if got := rt(fmt.Sprintf("GET 9 @%d", snap)); got != "ERR snapshot too old" {
		t.Errorf("released snapshot read -> %q, want ERR snapshot too old", got)
	}
}

// A floor raise issued between a BEGIN's floor read and its pin must not
// lift the MVCC floor above the snapshot BEGIN hands out. The interleaving
// is forced: holding the registry lock parks BEGIN right after its floor
// read (it owns the oracle lock and waits to pin), and only then does the
// open epoch commit and the batcher's floor raise start. Reading and
// pinning in two steps, that raise would pass the snapshot and the
// transaction's first snapshot read would answer "snapshot too old".
func TestBeginSnapshotSurvivesGCBeforePin(t *testing.T) {
	o, sr, m := newOracle(0), newSnapRegistry(), newMVCC(1)
	commit := func(val, ts uint64) {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.commitVer(9, val, false, ts, 0)
	}
	ts1 := o.alloc()
	commit(1, ts1)
	o.release(ts1)
	ts2 := o.alloc() // an epoch still in flight: the floor stays at ts1

	sr.mu.Lock()
	began := make(chan uint64)
	go func() { began <- sr.begin(o) }()
	for o.mu.TryLock() { // wait until BEGIN holds the oracle lock
		o.mu.Unlock()
		runtime.Gosched()
	}
	gcDone := make(chan struct{})
	go func() {
		// The applier folds ts2's row in, the batcher retires the epoch
		// and raises the floor (onCommit).
		commit(2, ts2)
		o.release(ts2)
		m.raiseFloor(sr.watermark(o))
		close(gcDone)
	}()
	sr.mu.Unlock()
	snap := <-began
	<-gcDone
	if snap != ts1 {
		t.Fatalf("BEGIN snapshot = %d, want the floor it read before the commit (%d)", snap, ts1)
	}
	if val, found, tooOld := m.readAt(9, 0, snap); tooOld || !found || val != 1 {
		t.Errorf("read @%d after the floor raise = (%d, found %v, too old %v), want 1", snap, val, found, tooOld)
	}
	if wm := sr.watermark(o); wm != ts1 {
		t.Errorf("watermark with the snapshot pinned = %d, want %d", wm, ts1)
	}
}

// RunLoad's transaction ledger matches the durable store: every key's final count
// equals its committed increments (no crashes, so nothing unresolved) —
// over a uniform keyspace, and over a small zipf-hot one (theta 0.99)
// where conflicting writers are the common case, not the tail.
func TestRunTxnLoadLedger(t *testing.T) {
	for _, tc := range []struct {
		name     string
		size     int
		keySpace uint64
		dist     string
		theta    float64
	}{
		{"uniform", 3, 64, DistUniform, 0},
		{"zipf-hot", 2, 16, DistZipf, 0.99},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tel := telemetry.New()
			srv, addr := startServer(t, Config{
				Mode: workloads.GPM, Shards: 2, Sets: 256, MaxBatch: 32,
				BatchWait: 200 * time.Microsecond, Telemetry: tel,
			})
			lres, err := RunLoad(LoadConfig{
				Addr: addr, TxnConns: 3, Txns: 90, TxnSize: tc.size,
				TxnKeySpace: tc.keySpace, Dist: tc.dist, Theta: tc.theta,
				Seed: 7, Retry: true,
			})
			if err != nil {
				t.Fatalf("RunLoad: %v", err)
			}
			res := lres.Txn
			if res.Txns == 0 || res.Txns+res.AbortedForGood != 90 {
				t.Errorf("resolved %d committed + %d dropped, want 90 total, some committed", res.Txns, res.AbortedForGood)
			}
			if res.GaveUp != 0 || res.Errors != 0 {
				t.Errorf("gaveUp=%d errors=%d, want clean run", res.GaveUp, res.Errors)
			}
			if res.ReadAnomalies != 0 {
				t.Errorf("%d repeatable-read anomalies inside snapshots", res.ReadAnomalies)
			}
			if res.Shards != 2 {
				t.Errorf("negotiated shard count %d, want 2", res.Shards)
			}

			// Durable counts must equal the committed ledger exactly.
			br, c := dial(t, addr)
			defer c.Close()
			rt := func(req string) string { return roundTrip(t, c, br, req) }
			for k, n := range res.Committed {
				want := "VALUE " + strconv.FormatInt(n, 10)
				if got := rt(fmt.Sprintf("GET %d", k)); got != want {
					t.Errorf("key %d: durable %q, ledger wants %q", k, got, want)
				}
			}
			c.Close()
			srv.Shutdown(5 * time.Second)

			reg := tel.Registry()
			var commits, aborts int64
			for i := 0; i < 2; i++ {
				commits += reg.Counter(fmt.Sprintf("serve.shard%d.txn_commits", i)).Value()
				aborts += reg.Counter(fmt.Sprintf("serve.shard%d.txn_aborts", i)).Value()
			}
			if commits != res.Txns {
				t.Errorf("server counted %d txn commits, clients %d", commits, res.Txns)
			}
			if aborts != res.Aborts {
				t.Errorf("server counted %d txn aborts, clients %d", aborts, res.Aborts)
			}
			assertExactlyOnce(t, srv)
		})
	}
}

// A committed (before-reply) crash rebuilds the slot rows at rts, the
// oracle's newest timestamp, while an epoch staged behind the crashed one
// still carries writes at lower timestamps. Those rows apply after the
// rebuild, and the last row appended is the slot's newest state: a
// transaction that begins once they committed must read them, and its
// read-modify-write must build on them. With rows sorted by ts instead,
// the staged write sorted below the rebuilt row, the snapshot read the
// pre-crash value, and the increment committed over the staged write with
// no conflict: an acknowledged update lost. The batcher is driven by hand,
// so the interleaving is forced, not raced for.
func TestStagedWriteAfterCommittedCrash(t *testing.T) {
	cfg := Config{Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 64}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	sh, err := NewShard(0, ShardConfig{Mode: cfg.Mode, Sets: cfg.Sets, MaxBatch: cfg.MaxBatch})
	if err != nil {
		t.Fatal(err)
	}
	w := newShardWorker(sh, cfg, telemetry.New().Registry())
	w.oracle, w.snaps = newOracle(0), newSnapRegistry()
	admit := func(r *request) *request {
		r.enq, r.done = time.Now(), make(chan string, 1)
		w.admit(r)
		return r
	}
	set := func(key, val uint64) *request { return admit(&request{op: 'S', key: key, val: val}) }
	commit := func() { w.onCommit(<-w.commitCh) }
	snapGet := func(key, snap uint64) (uint64, bool, bool) {
		return sh.mvcc.readAt(key, sh.SlotOf(key), snap)
	}
	const k = 11

	// The crashed epoch writes k; the next epoch, staged behind it before
	// the applier starts, writes k again and then another key, so the
	// rebuild ts lies above the staged write of k.
	sh.SetCrashPlan(&ShardCrashPlan{ApplyIndex: 1, Point: CrashBeforeReply})
	set(k, 1)
	w.dispatch()
	staged := []*request{set(k, 2), set(k+1, 3)}
	if len(w.staged) != 1 {
		t.Fatalf("staged epochs = %d, want 1 behind the in-flight one", len(w.staged))
	}
	go w.applyLoop()
	defer func() {
		close(w.dispatchCh)
		<-w.applierDone
	}()
	commit()
	if !sh.PlanFired() {
		t.Fatal("crash plan never fired")
	}

	// While the staged epoch is still pending, the stable floor lies below
	// its timestamps, hence below the rebuild ts: a snapshot taken now is
	// too old to read, and its transaction must retry.
	snap := w.snaps.begin(w.oracle)
	if _, _, tooOld := snapGet(k, snap); !tooOld {
		t.Errorf("snapshot %d taken with pre-crash epochs staged read k; want snapshot too old", snap)
	}
	w.snaps.release(snap)

	w.dispatch()
	commit()
	for _, r := range staged {
		if got := <-r.done; got != "OK" {
			t.Fatalf("staged SET -> %q", got)
		}
	}

	snap = w.snaps.begin(w.oracle)
	got, found, tooOld := snapGet(k, snap)
	if tooOld || !found || got != 2 {
		t.Errorf("GET k @%d = (%d, %v, too old %v), want the staged write 2", snap, got, found, tooOld)
	}
	w.snaps.release(snap)
	inc := admit(&request{op: 'C', key: k, snap: snap,
		txn: &txnOp{keys: []uint64{k}, vals: []uint64{got + 1}, dels: []bool{false}}})
	w.dispatch()
	commit()
	if reply := <-inc.done; !strings.HasPrefix(reply, "COMMITTED ") {
		t.Fatalf("increment COMMIT -> %q", reply)
	}
	if v, ok := sh.MVCCLatest(k); !ok || v != 3 {
		t.Errorf("k after the increment = %d (present %v), want 3", v, ok)
	}
	if err := sh.Verify(); err != nil {
		t.Fatal(err)
	}
}
