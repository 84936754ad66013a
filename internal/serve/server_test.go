package serve

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// startServer brings up a loopback server and returns its address and a
// shutdown func.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve()
	return srv, addr.String()
}

// dial opens a client and returns a send-line/expect-reply helper.
func dial(t *testing.T, addr string) (*bufio.Reader, net.Conn) {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c.SetDeadline(time.Now().Add(30 * time.Second))
	return bufio.NewReader(c), c
}

func roundTrip(t *testing.T, c net.Conn, br *bufio.Reader, req string) string {
	t.Helper()
	if _, err := fmt.Fprintf(c, "%s\n", req); err != nil {
		t.Fatalf("send %q: %v", req, err)
	}
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reply to %q: %v", req, err)
	}
	return strings.TrimSpace(line)
}

// servedOps is every client op the server's shards answered: ops their
// epochs applied plus GETs answered from the committed image.
func servedOps(srv *Server, tel *telemetry.Telemetry) int64 {
	var n int64
	for i, sh := range srv.Shards() {
		n += sh.Ops() + tel.Registry().Counter(fmt.Sprintf("serve.shard%d.cache_hits", i)).Value()
	}
	return n
}

// End-to-end over real TCP: sets, gets, dels, overwrite, durability on the
// response path, graceful drain, verification.
func TestServerEndToEnd(t *testing.T) {
	tel := telemetry.New()
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 2, Sets: 64, MaxBatch: 16,
		BatchWait: 200 * time.Microsecond, Telemetry: tel,
	})
	br, c := dial(t, addr)
	defer c.Close()

	cases := []struct{ req, want string }{
		{"PING", "PONG"},
		{"SET 1 100", "OK"},
		{"SET 2 200", "OK"},
		{"GET 1", "VALUE 100"},
		{"GET 2", "VALUE 200"},
		{"GET 3", "NOTFOUND"},
		{"SET 1 101", "OK"}, // overwrite (second batch: same slot)
		{"GET 1", "VALUE 101"},
		{"DEL 2", "OK"},
		{"GET 2", "NOTFOUND"},
		{"set 7 70", "OK"}, // verbs are case-insensitive
		{"GET 7", "VALUE 70"},
	}
	for _, tc := range cases {
		if got := roundTrip(t, c, br, tc.req); got != tc.want {
			t.Errorf("%q -> %q, want %q", tc.req, got, tc.want)
		}
	}
	c.Close()
	srv.Shutdown(5 * time.Second)

	for _, sh := range srv.Shards() {
		if err := sh.Verify(); err != nil {
			t.Errorf("shard %d: %v", sh.ID(), err)
		}
	}
	if served := servedOps(srv, tel); served != int64(len(cases)-1) { // PING is not a store op
		t.Errorf("shards served %d ops, want %d", served, len(cases)-1)
	}
	reg := tel.Registry()
	if reg.Histogram("serve.request_us", telemetry.LatencyBucketsUS).Count() != int64(len(cases)-1) {
		t.Errorf("request_us count = %d, want %d",
			reg.Histogram("serve.request_us", telemetry.LatencyBucketsUS).Count(), len(cases)-1)
	}
}

// Malformed requests get ERR replies without killing the connection or the
// server, and never reach a shard.
func TestServerProtocolErrors(t *testing.T) {
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 8,
	})
	defer srv.Shutdown(5 * time.Second)
	br, c := dial(t, addr)
	defer c.Close()

	for _, bad := range []string{
		"BOGUS 1", "SET 1", "SET 1 2 3", "GET", "SET x 1", "SET 1 x",
		"SET 0 5", "SET 1 0", "GET 0", "",
	} {
		if got := roundTrip(t, c, br, bad); !strings.HasPrefix(got, "ERR") {
			t.Errorf("%q -> %q, want ERR...", bad, got)
		}
	}
	// The connection still works after errors.
	if got := roundTrip(t, c, br, "SET 5 50"); got != "OK" {
		t.Errorf("SET after errors -> %q", got)
	}
	if got := roundTrip(t, c, br, "GET 5"); got != "VALUE 50" {
		t.Errorf("GET after errors -> %q", got)
	}
}

// Two SETs of one slot and a GET of it, admitted back to back, share ONE
// epoch: the second SET squashes onto the first's slot image instead of
// chaining into a later epoch, and the GET is resolved at admission from
// the staged image. The squash rule is asserted on a worker whose batcher
// and applier are not running, so no dispatch can split the three; the
// reply order is then checked end to end over TCP.
func TestServerConflictSquashesIntoEpoch(t *testing.T) {
	cfg := Config{Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 64}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	sh, err := NewShard(0, ShardConfig{Mode: cfg.Mode, Sets: cfg.Sets, MaxBatch: cfg.MaxBatch})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New().Registry()
	w := newShardWorker(sh, cfg, reg)
	w.oracle, w.snaps = newOracle(0), newSnapRegistry()
	var reqs []*request
	for _, op := range []struct {
		op       byte
		key, val uint64
	}{{'S', 11, 1}, {'S', 11, 2}, {'G', 11, 0}} {
		r := &request{op: op.op, key: op.key, val: op.val, enq: time.Now(), done: make(chan string, 1)}
		w.admit(r)
		reqs = append(reqs, r)
	}
	if len(w.staged) != 1 || len(w.staged[0].pending) != 3 {
		t.Fatalf("staged epochs = %d, want 1 carrying all 3 requests", len(w.staged))
	}
	if sq := reg.Counter("serve.shard0.squashes").Value(); sq != 1 {
		t.Errorf("squashes = %d, want 1", sq)
	}
	if chains := reg.Counter("serve.shard0.conflict_chains").Value(); chains != 0 {
		t.Errorf("conflict_chains = %d, want 0 (conflict squashed, not chained)", chains)
	}
	if got := reqs[2].pre; got != "VALUE 2" {
		t.Errorf("GET pre-resolved to %q, want VALUE 2", got)
	}

	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 64,
		BatchWait: 50 * time.Millisecond,
	})
	br, c := dial(t, addr)
	defer c.Close()
	if _, err := fmt.Fprintf(c, "SET 11 1\nSET 11 2\nGET 11\n"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OK", "OK", "VALUE 2"} {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if got := strings.TrimSpace(line); got != want {
			t.Errorf("reply %q, want %q", got, want)
		}
	}
	c.Close()
	srv.Shutdown(5 * time.Second)
	for _, sh := range srv.Shards() {
		if err := sh.Verify(); err != nil {
			t.Error(err)
		}
	}
}

// Squashing has limits, and past them a same-slot write must still chain
// into a later epoch: a SET may not join (or precede) the epoch whose
// batched kernel GET has to read the slot before it, and an epoch's version
// rows are capped at mutCap. One key, one pipelined burst — a cache-miss
// GET, more SETs than one epoch holds, a closing GET — reaches both however
// the batcher's dispatches interleave with the arrivals.
func TestServerConflictChainFallback(t *testing.T) {
	tel := telemetry.New()
	const maxBatch = 2
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: maxBatch,
		BatchWait: 50 * time.Millisecond,
		Telemetry: tel,
	})
	br, c := dial(t, addr)
	defer c.Close()

	sets := mutCap(maxBatch) + 2
	reqs := "GET 11\n"
	wants := []string{"NOTFOUND"}
	for i := 1; i <= sets; i++ {
		reqs += fmt.Sprintf("SET 11 %d\n", i)
		wants = append(wants, "OK")
	}
	reqs += "GET 11\n"
	wants = append(wants, fmt.Sprintf("VALUE %d", sets))
	if _, err := fmt.Fprint(c, reqs); err != nil {
		t.Fatal(err)
	}
	for i, want := range wants {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if got := strings.TrimSpace(line); got != want {
			t.Errorf("reply %d = %q, want %q", i, got, want)
		}
	}
	c.Close()
	srv.Shutdown(5 * time.Second)
	if chains := tel.Registry().Counter("serve.shard0.conflict_chains").Value(); chains < 1 {
		t.Errorf("conflict_chains = %d, want >= 1", chains)
	}
	for _, sh := range srv.Shards() {
		if err := sh.Verify(); err != nil {
			t.Error(err)
		}
	}
}

// Deterministic pipeline ordering: a long alternating SET/GET chain on ONE
// key, all pipelined, must observe every write in arrival order even
// though consecutive mutations land in consecutive epochs and the epochs
// overlap in the pipeline.
func TestServerPipelineOrdering(t *testing.T) {
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 32,
		BatchWait: 5 * time.Millisecond,
	})
	br, c := dial(t, addr)
	defer c.Close()

	const n = 50
	var reqs strings.Builder
	var wants []string
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&reqs, "SET 9 %d\nGET 9\n", i*10)
		wants = append(wants, "OK", fmt.Sprintf("VALUE %d", i*10))
	}
	if _, err := fmt.Fprint(c, reqs.String()); err != nil {
		t.Fatal(err)
	}
	for i, want := range wants {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if got := strings.TrimSpace(line); got != want {
			t.Fatalf("reply %d = %q, want %q", i, got, want)
		}
	}
	c.Close()
	srv.Shutdown(5 * time.Second)
	for _, sh := range srv.Shards() {
		if err := sh.Verify(); err != nil {
			t.Error(err)
		}
	}
}

// Hot-key reads: repeated GETs of one key are answered from the committed
// image (cache_hits > 0) without losing read-your-writes — a SET makes the
// slot pending and later GETs see the new value.
func TestServerHotKeyCache(t *testing.T) {
	tel := telemetry.New()
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 16,
		BatchWait: 200 * time.Microsecond, Telemetry: tel,
	})
	br, c := dial(t, addr)
	defer c.Close()

	if got := roundTrip(t, c, br, "SET 42 7"); got != "OK" {
		t.Fatalf("SET -> %q", got)
	}
	for i := 0; i < 20; i++ {
		if got := roundTrip(t, c, br, "GET 42"); got != "VALUE 7" {
			t.Fatalf("GET %d -> %q, want VALUE 7", i, got)
		}
	}
	// Overwrite, then read again: the image read must not serve the stale 7.
	if got := roundTrip(t, c, br, "SET 42 8"); got != "OK" {
		t.Fatalf("overwrite -> %q", got)
	}
	for i := 0; i < 5; i++ {
		if got := roundTrip(t, c, br, "GET 42"); got != "VALUE 8" {
			t.Fatalf("GET after overwrite -> %q, want VALUE 8", got)
		}
	}
	// A key that was never set answers NOTFOUND however often it is read.
	for i := 0; i < 5; i++ {
		if got := roundTrip(t, c, br, "GET 43"); got != "NOTFOUND" {
			t.Fatalf("GET absent -> %q, want NOTFOUND", got)
		}
	}
	c.Close()
	srv.Shutdown(5 * time.Second)
	reg := tel.Registry()
	if hits := reg.Counter("serve.shard0.cache_hits").Value(); hits < 5 {
		t.Errorf("cache_hits = %d, want >= 5", hits)
	}
	for _, sh := range srv.Shards() {
		if err := sh.Verify(); err != nil {
			t.Error(err)
		}
	}
}

// Hot GETs are answered from the shard's one committed image: the GET that
// makes a key hot takes no epoch, an absent key colliding with the hot
// occupant reads NOTFOUND from the image, and after a CrashBeforeReply
// crash of an epoch that SETs the hot key the read path starts cold, so
// the next GET goes to the kernel and returns the new, durable value.
func TestServerHotReadsFromImage(t *testing.T) {
	tel := telemetry.New()
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 16,
		BatchWait: 200 * time.Microsecond, Telemetry: tel,
	})
	br, c := dial(t, addr)
	defer c.Close()
	sh := srv.Shards()[0]
	absent := uint64(43)
	for sh.SlotOf(absent) != sh.SlotOf(42) {
		absent++
	}

	for _, tc := range []struct{ req, want string }{
		{"SET 42 7", "OK"},                          // epoch 1
		{"GET 42", "VALUE 7"},                       // epoch 2: the first access is not hot yet
		{"GET 42", "VALUE 7"},                       // now hot: answered from the image
		{fmt.Sprintf("GET %d", absent), "NOTFOUND"}, // the hot occupant answers
	} {
		if got := roundTrip(t, c, br, tc.req); got != tc.want {
			t.Fatalf("%q -> %q, want %q", tc.req, got, tc.want)
		}
	}
	sh.SetCrashPlan(&ShardCrashPlan{ApplyIndex: 1, Point: CrashBeforeReply})
	if got := roundTrip(t, c, br, "@1.1 SET 42 8"); got != "@1.1 RETRY" {
		t.Fatalf("crashed SET -> %q, want @1.1 RETRY", got)
	}
	if got := roundTrip(t, c, br, "GET 42"); got != "VALUE 8" { // epoch 3
		t.Fatalf("GET after the crash -> %q, want the durable VALUE 8", got)
	}
	c.Close()
	srv.Shutdown(5 * time.Second)

	reg := tel.Registry()
	if b := reg.Counter("serve.shard0.batches").Value(); b != 3 {
		t.Errorf("batches = %d, want 3 (SET, first GET, post-crash GET)", b)
	}
	if hits := reg.Counter("serve.shard0.cache_hits").Value(); hits != 2 {
		t.Errorf("cache_hits = %d, want 2 (the GET that made 42 hot, the colliding GET)", hits)
	}
	if err := sh.Verify(); err != nil {
		t.Error(err)
	}
}

// Shutdown must drain: requests accepted before the drain get real
// replies, and pending partial batches flush.
func TestServerDrainOnShutdown(t *testing.T) {
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 2, Sets: 64, MaxBatch: 1024,
		BatchWait: 10 * time.Second, // never seals on its own
	})
	br, c := dial(t, addr)
	defer c.Close()

	if _, err := fmt.Fprintf(c, "SET 1 10\nSET 2 20\n"); err != nil {
		t.Fatal(err)
	}
	// Give the requests time to reach the shard queues, then shut down
	// while the batches are still pending on their deadline.
	time.Sleep(100 * time.Millisecond)
	done := make(chan struct{})
	go func() { srv.Shutdown(10 * time.Second); close(done) }()

	for i := 0; i < 2; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d during drain: %v", i, err)
		}
		if got := strings.TrimSpace(line); got != "OK" {
			t.Errorf("drain reply = %q, want OK", got)
		}
	}
	c.Close()
	<-done
	for _, sh := range srv.Shards() {
		if err := sh.Verify(); err != nil {
			t.Error(err)
		}
	}
}

// The load generator end-to-end: a small closed-loop run with mixed ops
// across shards, then drain and verify, under GPM and both CAP baselines —
// every shard busy, and every client op answered exactly once, by a shard
// or by the hot-key cache.
func TestServerUnderLoad(t *testing.T) {
	for _, mode := range []workloads.Mode{workloads.GPM, workloads.CAPfs, workloads.CAPmm} {
		t.Run(mode.String(), func(t *testing.T) {
			tel := telemetry.New()
			srv, addr := startServer(t, Config{
				Mode: mode, Shards: 2, Sets: 256, MaxBatch: 64,
				BatchWait: 200 * time.Microsecond, Telemetry: tel,
			})
			res, err := RunLoad(LoadConfig{
				Addr: addr, Conns: 4, Ops: 800, Window: 8,
				GetFraction: 0.4, DelFraction: 0.1, KeySpace: 512, Seed: 1,
			})
			if err != nil {
				t.Fatalf("RunLoad: %v", err)
			}
			srv.Shutdown(10 * time.Second)

			if res.Ops != 800 {
				t.Errorf("completed %d ops, want 800", res.Ops)
			}
			if res.Errors != 0 {
				t.Errorf("%d errored replies", res.Errors)
			}
			if res.Throughput <= 0 || res.P50 <= 0 || res.P99 < res.P50 {
				t.Errorf("implausible latency stats: tput=%g p50=%v p99=%v", res.Throughput, res.P50, res.P99)
			}
			for _, sh := range srv.Shards() {
				if sh.Ops() == 0 {
					t.Errorf("shard %d idle — keyspace not spanning shards", sh.ID())
				}
				if err := sh.Verify(); err != nil {
					t.Error(err)
				}
			}
			if served := servedOps(srv, tel); served != res.Ops {
				t.Errorf("shards and image hits served %d ops, clients saw %d", served, res.Ops)
			}
			if b := tel.Registry().Counter("serve.shard0.batches").Value(); b < 1 {
				t.Error("no batches recorded on shard 0")
			}
		})
	}
}
