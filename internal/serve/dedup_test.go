package serve

import (
	"strings"
	"testing"
	"time"

	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// retryTrip resends req until the reply stops being RETRY (bounded), the
// way a protocol-compliant client rides out a crash-restart.
func retryTrip(t *testing.T, roundtrip func(string) string, req string) string {
	t.Helper()
	for i := 0; i < 20; i++ {
		got := roundtrip(req)
		if !strings.HasSuffix(got, " RETRY") {
			return got
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%q: still RETRY after 20 attempts", req)
	return ""
}

// assertExactlyOnce fails if any request ID was applied to the committed
// model more than once across the server's shards, or was acknowledged
// from a high-water mark without having been applied exactly once.
func assertExactlyOnce(t *testing.T, srv *Server) {
	t.Helper()
	for _, sh := range srv.Shards() {
		if v := sh.TallyViolations(); len(v) != 0 {
			t.Errorf("shard %d applied IDs more than once: %v", sh.ID(), v)
		}
		if err := sh.Verify(); err != nil {
			t.Errorf("shard %d: %v", sh.ID(), err)
		}
	}
	if v := srv.AckViolations(); len(v) != 0 {
		t.Errorf("acks derived from high-water marks without exactly one apply: %v", v)
	}
}

// Identified requests replay their original replies on retry: the resend
// never reaches the store a second time.
func TestDedupReplayAfterReply(t *testing.T) {
	tel := telemetry.New()
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 8,
		Telemetry: tel,
	})
	br, c := dial(t, addr)
	defer c.Close()
	rt := func(req string) string { return roundTrip(t, c, br, req) }

	cases := []struct{ req, want string }{
		{"@1.1 SET 5 100", "@1.1 OK"},
		{"@1.1 SET 5 100", "@1.1 OK"}, // retried mutation: replayed, not reapplied
		{"@1.2 GET 5", "@1.2 VALUE 100"},
		{"@1.2 GET 5", "@1.2 VALUE 100"}, // retried read: replayed
		{"@1.3 SET 5 200", "@1.3 OK"},
		{"@1.2 GET 5", "@1.2 VALUE 100"}, // replay survives a newer overwrite
		{"@1.4 GET 5", "@1.4 VALUE 200"},
		{"@2.1 SET 7 700", "@2.1 OK"}, // independent client, independent seqs
		{"@2.1 SET 7 700", "@2.1 OK"},
		{"GET 7", "VALUE 700"}, // unidentified ops interleave untouched
	}
	for _, tc := range cases {
		if got := rt(tc.req); got != tc.want {
			t.Errorf("%q -> %q, want %q", tc.req, got, tc.want)
		}
	}
	c.Close()
	srv.Shutdown(5 * time.Second)
	assertExactlyOnce(t, srv)
	// Replays must not have reached the store: 6 unique ops, applied or
	// answered from the committed image.
	if got := servedOps(srv, tel); got != 6 {
		t.Errorf("shard served %d ops, want 6 (replays must not re-apply)", got)
	}
}

// A committed ID presented with a different payload is a client bug and is
// rejected, not silently replayed or reapplied.
func TestDedupIDReuseRejected(t *testing.T) {
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 8,
	})
	br, c := dial(t, addr)
	defer c.Close()
	rt := func(req string) string { return roundTrip(t, c, br, req) }

	if got := rt("@1.1 SET 5 100"); got != "@1.1 OK" {
		t.Fatalf("seed set -> %q", got)
	}
	got := rt("@1.1 SET 5 999")
	if !strings.HasPrefix(got, "@1.1 ERR") || !strings.Contains(got, "different payload") {
		t.Errorf("ID reuse -> %q, want @1.1 ERR ... different payload", got)
	}
	if got := rt("GET 5"); got != "VALUE 100" {
		t.Errorf("value after rejected reuse = %q, want VALUE 100", got)
	}
	c.Close()
	srv.Shutdown(5 * time.Second)
	assertExactlyOnce(t, srv)
}

// Eviction from the bounded reply window degrades gracefully: a retried
// mutation below the client's committed high-water mark still acknowledges
// without re-applying, and a retried read re-executes.
func TestDedupWindowEviction(t *testing.T) {
	tel := telemetry.New()
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 4,
		DedupWindow: 2, Telemetry: tel,
	})
	br, c := dial(t, addr)
	defer c.Close()
	rt := func(req string) string { return roundTrip(t, c, br, req) }

	if got := rt("@1.1 SET 5 100"); got != "@1.1 OK" {
		t.Fatalf("seed set -> %q", got)
	}
	if got := rt("@1.2 GET 5"); got != "@1.2 VALUE 100" {
		t.Fatalf("seed get -> %q", got)
	}
	// Push both entries out of the 2-slot window.
	for i, req := range []string{"@1.3 SET 6 600", "@1.4 SET 7 700", "@1.5 SET 8 800"} {
		if got := rt(req); !strings.HasSuffix(got, " OK") {
			t.Fatalf("filler %d -> %q", i, got)
		}
	}
	// Evicted mutation: hwm says committed, ack replays without re-apply.
	if got := rt("@1.1 SET 5 100"); got != "@1.1 OK" {
		t.Errorf("evicted mutation retry -> %q, want @1.1 OK", got)
	}
	// Evicted read: re-executes against current state (still 100 here).
	if got := rt("@1.2 GET 5"); got != "@1.2 VALUE 100" {
		t.Errorf("evicted read retry -> %q, want @1.2 VALUE 100", got)
	}
	c.Close()
	srv.Shutdown(5 * time.Second)
	assertExactlyOnce(t, srv)
	if got := servedOps(srv, tel); got != 6 {
		t.Errorf("shard served %d ops, want 6 (evicted retries must not re-apply)", got)
	}
}

// Exactly-once spans a crash-restart: a mutation cut down at
// CrashBeforeReply committed durably but its ack was lost; the retry must
// be acknowledged from the PM-recovered high-water mark, not re-applied. A
// mutation cut down before its kernel rolled back; its retry must apply.
func TestDedupSpansRestart(t *testing.T) {
	for _, tc := range []struct {
		point CrashPoint
	}{
		{CrashBeforeReply},  // committed once; retry replays the ack
		{CrashBeforeKernel}, // rolled back; retry applies fresh
	} {
		t.Run(tc.point.String(), func(t *testing.T) {
			tel := telemetry.New()
			srv, addr := startServer(t, Config{
				Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 8,
				Telemetry: tel,
			})
			br, c := dial(t, addr)
			defer c.Close()
			rt := func(req string) string { return roundTrip(t, c, br, req) }

			if got := rt("@1.1 SET 3 30"); got != "@1.1 OK" {
				t.Fatalf("seed set -> %q", got)
			}
			// Arm: the next mutation-bearing batch power-fails at the point
			// under test (ApplyIndex counts applies after arming).
			srv.Shards()[0].SetCrashPlan(&ShardCrashPlan{ApplyIndex: 1, Point: tc.point})

			if got := rt("@1.2 SET 5 100"); got != "@1.2 RETRY" {
				t.Fatalf("crashed set -> %q, want @1.2 RETRY", got)
			}
			if got := retryTrip(t, rt, "@1.2 SET 5 100"); got != "@1.2 OK" {
				t.Errorf("retry after restart -> %q, want @1.2 OK", got)
			}
			if got := retryTrip(t, rt, "@1.3 GET 5"); got != "@1.3 VALUE 100" {
				t.Errorf("value after restart -> %q, want @1.3 VALUE 100", got)
			}
			if got := retryTrip(t, rt, "@1.4 GET 3"); got != "@1.4 VALUE 30" {
				t.Errorf("pre-crash value -> %q, want @1.4 VALUE 30", got)
			}
			c.Close()
			srv.Shutdown(5 * time.Second)
			assertExactlyOnce(t, srv)
			if !srv.Shards()[0].PlanFired() {
				t.Fatal("crash plan never fired")
			}
			if got := srv.Status()[0].Restarts; got != 1 {
				t.Errorf("restarts = %d, want 1", got)
			}
			if n := srv.Shards()[0].tally[ReqID{CID: 1, Seq: 2}]; n != 1 {
				t.Errorf("crashed/retried mutation applied %d times, want exactly 1", n)
			}
		})
	}
}

// A rolled-back crash must not let later pipelined seqs of the same client
// commit over the hole it tore: if they did, the client's high-water mark
// would advance past the rolled-back mutation and its retry would be
// absorb-acked without ever re-applying — an acknowledged lost update.
// The pipeline flushes staged epochs on rollback and holds re-admission of
// seqs above the hole, so every RETRYed op re-applies exactly once.
func TestDedupRollbackNoGapOverHole(t *testing.T) {
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 8,
	})
	br, c := dial(t, addr)
	defer c.Close()
	rt := func(req string) string { return roundTrip(t, c, br, req) }

	sh := srv.Shards()[0]
	// The first mutation-bearing epoch power-fails before its kernel: its
	// transaction rolls back entirely.
	sh.SetCrashPlan(&ShardCrashPlan{ApplyIndex: 1, Point: CrashBeforeKernel})

	// Pipeline three identified ops in one write. @1.2 hits the same key as
	// @1.1, so conflict chaining forces it (and, via the client floor, @1.3)
	// into a LATER epoch than @1.1 — exactly the staged-behind-the-crash
	// shape that used to commit over the hole.
	if _, err := c.Write([]byte("@1.1 SET 10 1\n@1.2 SET 10 2\n@1.3 SET 20 5\n")); err != nil {
		t.Fatalf("pipelined write: %v", err)
	}
	for _, want := range []string{"@1.1 RETRY", "@1.2 RETRY", "@1.3 RETRY"} {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reply: %v", err)
		}
		if got := strings.TrimSpace(line); got != want {
			t.Fatalf("pipelined reply = %q, want %q (no staged op may commit over a rolled-back hole)", got, want)
		}
	}

	// Protocol-compliant resend in seq order: every op must re-apply.
	for _, tc := range []struct{ req, want string }{
		{"@1.1 SET 10 1", "@1.1 OK"},
		{"@1.2 SET 10 2", "@1.2 OK"},
		{"@1.3 SET 20 5", "@1.3 OK"},
		{"@1.4 GET 10", "@1.4 VALUE 2"},
		{"@1.5 GET 20", "@1.5 VALUE 5"},
	} {
		if got := retryTrip(t, rt, tc.req); got != tc.want {
			t.Errorf("%q -> %q, want %q", tc.req, got, tc.want)
		}
	}
	c.Close()
	srv.Shutdown(5 * time.Second)
	assertExactlyOnce(t, srv)
	if !sh.PlanFired() {
		t.Fatal("crash plan never fired")
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if n := sh.tally[ReqID{CID: 1, Seq: seq}]; n != 1 {
			t.Errorf("@1.%d applied %d times, want exactly 1 (rolled-back mutations must re-apply)", seq, n)
		}
	}
}

// Negative control: with dedup persistence disabled the high-water marks
// die with the crash, the retried lost-ack mutation re-applies, and the
// duplicate-apply tally catches it. This is the proof the detector detects.
func TestDedupNegativeControlCaught(t *testing.T) {
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 8,
	})
	br, c := dial(t, addr)
	defer c.Close()
	rt := func(req string) string { return roundTrip(t, c, br, req) }

	sh := srv.Shards()[0]
	sh.DisableDedupPersist()
	sh.SetCrashPlan(&ShardCrashPlan{ApplyIndex: 1, Point: CrashBeforeReply})

	if got := rt("@1.1 SET 5 100"); got != "@1.1 RETRY" {
		t.Fatalf("crashed set -> %q, want @1.1 RETRY", got)
	}
	if got := retryTrip(t, rt, "@1.1 SET 5 100"); got != "@1.1 OK" {
		t.Fatalf("retry -> %q, want @1.1 OK", got)
	}
	c.Close()
	srv.Shutdown(5 * time.Second)
	v := sh.TallyViolations()
	if len(v) != 1 || v[0] != (ReqID{CID: 1, Seq: 1}) {
		t.Fatalf("violations = %v, want exactly [@1.1]", v)
	}
}
