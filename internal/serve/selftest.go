package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/gpm-sim/gpm/internal/obs"
	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// BenchEntry is the outcome of one selftest pass over one (mode, shard
// count) combination. Every field is a count or a verdict; wall-clock
// numbers are the benchmark's job (go run ./bench).
type BenchEntry struct {
	Mode    string
	Shards  int
	Ops     int64 // client ops completed (txn pass: transactions issued)
	Batches int64
	// MeanFill is ops per dispatched epoch (pipeline batching efficiency).
	MeanFill float64
	// CacheHits counts GETs served from the hot-key cache, no kernel trip.
	CacheHits int64
	// SimBatchUS is the mean simulated time per batch across shards.
	SimBatchUS float64
	// RecoverUS is the summed simulated restart/recovery time across shards
	// (kill-and-recover runs only).
	RecoverUS float64
	// CrashPoints lists the between-stage crash points exercised per shard
	// by the kill-and-recover pass.
	CrashPoints []string
	Recovered   bool
	Verified    bool
	// TracesCaptured counts the per-request pipeline traces the run sampled
	// (head sampling + slow threshold).
	TracesCaptured int64
	// AdminProbed reports that the admin endpoint answered /metrics,
	// /healthz and /statusz during the run (Admin option).
	AdminProbed bool
	// AuditEvents counts recovery-audit events; AuditConsistent reports the
	// trail matched the injected crash points (kill-and-recover runs).
	AuditEvents     int
	AuditConsistent bool
	// Retry marks the exactly-once-client pass: every request carries an
	// "@cid.seq" ID through the server's dedup window.
	Retry bool
	// Txn marks the transactional pass: zipf hot-key read-modify-write
	// transactions over protocol v2, with the per-key snapshot-isolation
	// ledger verified against the durable image (SILedgerKeys =
	// slot-exclusive keys checked).
	Txn                bool
	TxnCommitted       int64
	TxnConflictRetries int64
	TxnDropped         int64 // MaxAttempts exceeded
	SILedgerKeys       int
}

// BenchReport is what SelfTest returns: the load's key distribution and
// one entry per pass.
type BenchReport struct {
	Dist    string
	Theta   float64 // zipf only
	Entries []BenchEntry
}

// SelfTestOptions configures SelfTest runs.
type SelfTestOptions struct {
	Modes       []workloads.Mode
	ShardCounts []int
	Ops         int64
	Conns       int
	Sets        int
	MaxBatch    int
	BatchWait   time.Duration
	QueueDepth  int
	HotKeys     int
	Workers     int
	Seed        uint64
	Dist        string  // key distribution: DistUniform (default) or DistZipf
	Theta       float64 // zipf skew (0 = 0.99)
	// KillAndRecover crashes every shard after the load drains — cycling
	// through the between-stage crash points — restarts it through the
	// recovery path, and verifies (GPM modes only; CAP modes verify
	// without the crash).
	KillAndRecover bool
	// Admin starts the live admin endpoint (127.0.0.1:0) for each run and
	// probes /metrics, /healthz and /statusz before shutdown.
	Admin bool
	// AuditPath, when set, streams the recovery audit trail to this JSONL
	// file (appending across runs).
	AuditPath string
	// RetryPass repeats each (mode, shards) combination with the
	// exactly-once retry client, so request IDs and the dedup window are
	// exercised on a clean network.
	RetryPass bool
	// TxnPass adds a transactional pass per (mode, shards): a zipf hot-key
	// RMW transaction load over protocol v2 with the SI ledger verified
	// against the durable image.
	TxnPass bool
}

func (o *SelfTestOptions) normalize() {
	if len(o.Modes) == 0 {
		o.Modes = []workloads.Mode{workloads.GPM}
	}
	if len(o.ShardCounts) == 0 {
		o.ShardCounts = []int{2}
	}
	if o.Ops == 0 {
		o.Ops = 10000
	}
	if o.Conns == 0 {
		o.Conns = 8
	}
	if o.Sets == 0 {
		o.Sets = 1 << 10
	}
	if o.Dist == "" {
		o.Dist = DistUniform
	}
	if o.Dist == DistZipf && o.Theta == 0 {
		o.Theta = 0.99
	}
}

// SelfTest is the serving path's correctness smoke. For every (mode, shards)
// combination it drives real TCP loopback traffic through an in-process
// server, drains it gracefully, optionally kills and recovers every shard at
// each crash point, and verifies the durable state and the audit trail;
// RetryPass and TxnPass repeat that with the exactly-once client and with
// transactions. Any verification or recovery failure is an error.
func SelfTest(opts SelfTestOptions) (*BenchReport, error) {
	opts.normalize()
	rep := &BenchReport{Dist: opts.Dist, Theta: opts.Theta}
	for _, mode := range opts.Modes {
		for _, shards := range opts.ShardCounts {
			entry, err := runSelfTest(opts, mode, shards, false)
			if err != nil {
				return rep, fmt.Errorf("serve: selftest %s x%d: %w", mode, shards, err)
			}
			rep.Entries = append(rep.Entries, *entry)
			if opts.RetryPass {
				entry, err := runSelfTest(opts, mode, shards, true)
				if err != nil {
					return rep, fmt.Errorf("serve: selftest %s x%d (retry): %w", mode, shards, err)
				}
				rep.Entries = append(rep.Entries, *entry)
			}
			if opts.TxnPass {
				entry, err := runTxnSelfTest(opts, mode, shards)
				if err != nil {
					return rep, fmt.Errorf("serve: selftest %s x%d (txn): %w", mode, shards, err)
				}
				rep.Entries = append(rep.Entries, *entry)
			}
		}
	}
	return rep, nil
}

// selfTestServer is one in-process server under selftest, serving on a
// loopback port with the full observability plane on — tracing and audit
// always, the admin endpoint when asked — so the smoke exercises the
// pipeline as it ships, not a stripped build.
type selfTestServer struct {
	srv       *Server
	plane     *ObsPlane
	addr      string
	adminAddr string // "" when the admin endpoint is off
	serveErr  chan error
}

// startSelfTestServer brings a selftest server up. The caller owns the
// teardown: drain() once the load is done, plane.Stop() when finished with
// the audit trail.
func startSelfTestServer(opts SelfTestOptions, mode workloads.Mode, shards int, admin bool) (*selfTestServer, error) {
	obsCfg := ObsConfig{AuditPath: opts.AuditPath}
	if admin {
		obsCfg.AdminAddr = "127.0.0.1:0"
	}
	plane, err := NewObsPlane(obsCfg)
	if err != nil {
		return nil, err
	}
	cfg := Config{
		Mode:       mode,
		Shards:     shards,
		Sets:       opts.Sets,
		MaxBatch:   opts.MaxBatch,
		BatchWait:  opts.BatchWait,
		QueueDepth: opts.QueueDepth,
		HotKeys:    opts.HotKeys,
		Workers:    opts.Workers,
		Seed:       opts.Seed,
		Telemetry:  telemetry.New(),
	}
	plane.Apply(&cfg)
	fail := func(err error) (*selfTestServer, error) {
		plane.Stop()
		return nil, err
	}
	srv, err := NewServer(cfg)
	if err != nil {
		return fail(err)
	}
	adminAddr, err := plane.Start(srv)
	if err != nil {
		return fail(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	s := &selfTestServer{
		srv: srv, plane: plane, addr: addr.String(), adminAddr: adminAddr,
		serveErr: make(chan error, 1),
	}
	go func() { s.serveErr <- srv.Serve() }()
	return s, nil
}

// drain shuts the server down gracefully and reports how the serve loop
// ended.
func (s *selfTestServer) drain() error {
	s.srv.Shutdown(10 * time.Second)
	if err := <-s.serveErr; err != nil {
		return fmt.Errorf("serve loop: %w", err)
	}
	return nil
}

// sumCounter totals the per-shard counter serve.shard<i>.<name>.
func (s *selfTestServer) sumCounter(name string) int64 {
	var sum int64
	for i := range s.srv.Shards() {
		sum += s.srv.Registry().Counter(fmt.Sprintf("serve.shard%d.%s", i, name)).Value()
	}
	return sum
}

func runSelfTest(opts SelfTestOptions, mode workloads.Mode, shards int, retry bool) (*BenchEntry, error) {
	s, err := startSelfTestServer(opts, mode, shards, opts.Admin)
	if err != nil {
		return nil, err
	}
	defer s.plane.Stop()
	srv := s.srv

	load, err := RunLoad(LoadConfig{
		Addr:        s.addr,
		Conns:       opts.Conns,
		Ops:         opts.Ops,
		Window:      16,
		GetFraction: 0.5,
		DelFraction: 0.05,
		KeySpace:    uint64(opts.Sets) * 2, // enough reuse for hits and dels
		Dist:        opts.Dist,
		Theta:       opts.Theta,
		Seed:        opts.Seed,
		Retry:       retry,
	})
	if err == nil && s.adminAddr != "" {
		// Probe the admin surface while the server is still live and loaded.
		if err = probeAdmin(s.adminAddr, shards); err != nil {
			err = fmt.Errorf("admin probe: %w", err)
		}
	}
	if derr := s.drain(); err == nil {
		err = derr
	}
	if err != nil {
		return nil, err
	}
	if load.Errors > 0 {
		return nil, fmt.Errorf("%d requests failed under load", load.Errors)
	}
	if retry && load.GaveUp > 0 {
		return nil, fmt.Errorf("%d ops gave up on a clean loopback network", load.GaveUp)
	}

	entry := &BenchEntry{
		Mode:        mode.String(),
		Shards:      shards,
		Ops:         load.Ops,
		AdminProbed: s.adminAddr != "",
		Retry:       retry,
	}
	entry.TracesCaptured, _ = s.plane.Tracer.Captured()
	if load.Ops >= obs.DefaultSampleEvery && entry.TracesCaptured == 0 {
		return nil, fmt.Errorf("tracing enabled but 0 of %d requests captured", load.Ops)
	}
	var served int64
	for i, sh := range srv.Shards() {
		served += sh.Ops()
		if sh.Ops() == 0 {
			return nil, fmt.Errorf("shard %d served 0 ops — keyspace did not span all shards", i)
		}
	}
	entry.Batches, entry.CacheHits = s.sumCounter("batches"), s.sumCounter("cache_hits")
	if served+entry.CacheHits != load.Ops {
		return nil, fmt.Errorf("shards served %d ops + %d cache hits, clients completed %d",
			served, entry.CacheHits, load.Ops)
	}
	if entry.Batches > 0 {
		// Cache hits never reach a batch; fill measures what the kernel saw.
		entry.MeanFill = float64(served) / float64(entry.Batches)
	}
	if h := srv.Registry().Histogram("serve.batch_sim_us", telemetry.LatencyBucketsUS); h.Count() > 0 {
		entry.SimBatchUS = float64(h.Sum()) / float64(h.Count())
	}

	// Kill-and-recover: crash every shard at a between-stage pipeline crash
	// point (cycled so every point is exercised), then restart through the
	// recovery kernel and reload path. The mid-kernel point dies inside the
	// mutation kernel itself (partial HCL log); the others model a process
	// death between pipeline stages.
	var expected []crashRound
	if opts.KillAndRecover && mode.UsesGPM() {
		points := CrashPoints()
		all := srv.Shards()
		rounds := len(all)
		if rounds < len(points) {
			rounds = len(points) // every point fires even with few shards
		}
		for i := 0; i < rounds; i++ {
			sh := all[i%len(all)]
			p := points[i%len(points)]
			crash := crashBatchFor(sh, shards)
			if err := sh.CrashAt(crash, p, 3); err != nil {
				return nil, fmt.Errorf("shard %d crash %s: %w", sh.ID(), p, err)
			}
			entry.CrashPoints = append(entry.CrashPoints, p.String())
			restore, err := sh.Restart()
			if err != nil {
				return nil, fmt.Errorf("shard %d restart after %s: %w", sh.ID(), p, err)
			}
			entry.RecoverUS += restore.Seconds() * 1e6
			expected = append(expected, crashRound{shard: sh.ID(), point: p, muts: crash.Mutations()})
		}
		entry.Recovered = true
	}
	for _, sh := range srv.Shards() {
		if err := sh.Verify(); err != nil {
			return nil, err
		}
	}
	entry.Verified = true
	entry.AuditEvents = s.plane.Audit.Len()
	if opts.KillAndRecover {
		if err := verifyAuditTrail(s.plane.Audit.Events(), expected, shards); err != nil {
			return nil, fmt.Errorf("audit trail: %w", err)
		}
		entry.AuditConsistent = true
	}
	return entry, nil
}

// Txn-pass workload shape: transactions draw zipf-hot keys from a keyspace
// far above the plain-load range (disjoint dedup/key territory), small
// enough that conflicting writers are the common case, not the tail.
const (
	selfTestTxnKeyBase  = 1 << 20
	selfTestTxnKeySpace = 256
)

// runTxnSelfTest checks the transactional serving path for one (mode,
// shards) combination: a zipf hot-key read-modify-write transaction load
// over protocol v2 (exactly-once client, conflict re-runs), then the per-key
// snapshot-isolation ledger against the durable image.
func runTxnSelfTest(opts SelfTestOptions, mode workloads.Mode, shards int) (*BenchEntry, error) {
	s, err := startSelfTestServer(opts, mode, shards, false)
	if err != nil {
		return nil, err
	}
	defer s.plane.Stop()
	srv := s.srv

	txns := opts.Ops / 8
	if txns < 64 {
		txns = 64
	}
	tres, terr := RunTxnLoad(TxnLoadConfig{
		Addr:     s.addr,
		Conns:    opts.Conns,
		Txns:     txns,
		TxnSize:  2,
		KeyBase:  selfTestTxnKeyBase,
		KeySpace: selfTestTxnKeySpace,
		Dist:     DistZipf,
		Theta:    0.99,
		Seed:     opts.Seed,
		Retry:    true,
	})
	if err := s.drain(); err != nil {
		return nil, err
	}
	if terr != nil {
		return nil, terr
	}
	if tres.Errors > 0 || len(tres.Failures) > 0 {
		return nil, fmt.Errorf("txn load: %d errors, failures %v", tres.Errors, tres.Failures)
	}
	if tres.GaveUp > 0 {
		return nil, fmt.Errorf("%d txn outcomes unresolved on a clean loopback network", tres.GaveUp)
	}
	if tres.ReadAnomalies > 0 {
		return nil, fmt.Errorf("repeatable read violated %d times inside open snapshots", tres.ReadAnomalies)
	}
	if tres.Txns == 0 {
		return nil, fmt.Errorf("0 of %d transactions committed", txns)
	}
	if got := tres.Txns + tres.AbortedForGood + tres.GaveUp; got != txns {
		return nil, fmt.Errorf("txn accounting: %d committed + %d dropped + %d unknown != %d issued",
			tres.Txns, tres.AbortedForGood, tres.GaveUp, txns)
	}

	entry := &BenchEntry{
		Mode:               mode.String(),
		Shards:             shards,
		Ops:                txns,
		Retry:              true,
		Txn:                true,
		TxnCommitted:       tres.Txns,
		TxnDropped:         tres.AbortedForGood,
		TxnConflictRetries: tres.ConflictRetries,
	}
	if entry.Batches = s.sumCounter("batches"); entry.Batches > 0 {
		// For the txn pass, fill counts epoch-riding requests (COMMITs) per
		// dispatched epoch: conflicting commits sharing a kernel trip.
		entry.MeanFill = float64(s.sumCounter("ops")) / float64(entry.Batches)
	}

	// SI ledger: every committed transaction read-modify-wrote +1 on each of
	// its keys, so a slot-exclusive key's durable value must land inside
	// [Committed[k], Committed[k]+Unresolved[k]]. Keys sharing a store slot
	// are excluded — a colliding SET legally evicts the incumbent.
	for _, sh := range srv.Shards() {
		owners := make(map[int]int)
		for k := uint64(0); k < selfTestTxnKeySpace; k++ {
			key := uint64(selfTestTxnKeyBase) + k
			if int(key%uint64(shards)) == sh.ID() {
				owners[sh.SlotOf(key)]++
			}
		}
		for k := uint64(0); k < selfTestTxnKeySpace; k++ {
			key := uint64(selfTestTxnKeyBase) + k
			if int(key%uint64(shards)) != sh.ID() || owners[sh.SlotOf(key)] != 1 {
				continue
			}
			lo := tres.Committed[key]
			hi := lo + tres.Unresolved[key]
			v, _ := sh.MVCCLatest(key) // absent reads as 0
			if int64(v) < lo || int64(v) > hi {
				return nil, fmt.Errorf("si ledger: key %d durable count %d outside [%d, %d]", key, v, lo, hi)
			}
			entry.SILedgerKeys++
		}
		if err := sh.Verify(); err != nil {
			return nil, err
		}
	}
	if entry.SILedgerKeys == 0 {
		return nil, fmt.Errorf("si ledger checked 0 slot-exclusive keys — the invariant was vacuous")
	}
	entry.Verified = true
	return entry, nil
}

// crashRound records one injected crash for audit-trail cross-checking.
type crashRound struct {
	shard int
	point CrashPoint
	muts  int
}

// probeAdmin asserts the admin surface is answering with well-formed,
// non-trivial documents while the server runs: /healthz says ok, /metrics
// renders the shard-0 op counter in Prometheus text, /statusz parses as
// JSON with the right shard count.
func probeAdmin(addr string, shards int) error {
	get := func(path string) (string, error) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("%s -> %d: %s", path, resp.StatusCode, body)
		}
		return string(body), nil
	}
	if body, err := get("/healthz"); err != nil {
		return err
	} else if strings.TrimSpace(body) != "ok" {
		return fmt.Errorf("/healthz said %q, want ok", body)
	}
	if body, err := get("/metrics"); err != nil {
		return err
	} else if !strings.Contains(body, "serve_shard0_ops") {
		return fmt.Errorf("/metrics missing serve_shard0_ops:\n%.500s", body)
	}
	body, err := get("/statusz")
	if err != nil {
		return err
	}
	var doc StatusDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		return fmt.Errorf("/statusz not JSON: %w", err)
	}
	if doc.Shards != shards || len(doc.ShardRows) != shards {
		return fmt.Errorf("/statusz reports %d/%d shards, want %d", doc.Shards, len(doc.ShardRows), shards)
	}
	if _, err := get("/debug/trace?n=4"); err != nil {
		return err
	}
	return nil
}

// verifyAuditTrail cross-checks the recovery audit trail against the
// crashes actually injected: every crash event pairs with a restart whose
// replay evidence matches what that crash point must have left behind —
//
//	before-kernel  tx flag set, all geometries replayed, 0 slots undone
//	               (the log was still empty);
//	mid-kernel     tx flag set, replay undid at most the batch's mutations;
//	before-commit  tx flag set, replay undid EXACTLY the batch's mutations
//	               (fully logged, never committed);
//	before-reply   tx flag clear (the batch committed), nothing replayed.
//
// Every shard must close with a verify event whose outcome is "ok".
func verifyAuditTrail(events []obs.AuditEvent, expected []crashRound, shards int) error {
	var crashes, restarts, verifies []obs.AuditEvent
	for _, ev := range events {
		switch ev.Type {
		case obs.AuditCrash:
			crashes = append(crashes, ev)
		case obs.AuditRestart:
			restarts = append(restarts, ev)
		case obs.AuditVerify:
			verifies = append(verifies, ev)
		}
	}
	if len(crashes) != len(expected) || len(restarts) != len(expected) {
		return fmt.Errorf("%d crash / %d restart events for %d injected crashes",
			len(crashes), len(restarts), len(expected))
	}
	for i, want := range expected {
		c, r := crashes[i], restarts[i]
		if c.Shard != want.shard || c.Point != want.point.String() {
			return fmt.Errorf("crash %d recorded shard %d point %q, injected shard %d point %s",
				i, c.Shard, c.Point, want.shard, want.point)
		}
		if r.Shard != want.shard {
			return fmt.Errorf("restart %d on shard %d, crash was on shard %d", i, r.Shard, want.shard)
		}
		if r.Seq <= c.Seq {
			return fmt.Errorf("restart %d (seq %d) not after its crash (seq %d)", i, r.Seq, c.Seq)
		}
		wantTx := want.point != CrashBeforeReply
		if r.TxSet != wantTx {
			return fmt.Errorf("restart %d after %s found tx_set=%v, want %v", i, want.point, r.TxSet, wantTx)
		}
		if wantTx && len(r.Geometries) == 0 {
			return fmt.Errorf("restart %d after %s replayed no log geometries", i, want.point)
		}
		if !wantTx && (len(r.Geometries) != 0 || r.SlotsRolledBack != 0) {
			return fmt.Errorf("restart %d after %s replayed %v geoms, undid %d slots; committed batches must not be rolled back",
				i, want.point, r.Geometries, r.SlotsRolledBack)
		}
		switch want.point {
		case CrashBeforeKernel:
			if r.SlotsRolledBack != 0 {
				return fmt.Errorf("restart %d after %s undid %d slots, want 0 (kernel never ran)",
					i, want.point, r.SlotsRolledBack)
			}
		case CrashMidKernel:
			if r.SlotsRolledBack > int64(want.muts) {
				return fmt.Errorf("restart %d after %s undid %d slots, batch only had %d mutations",
					i, want.point, r.SlotsRolledBack, want.muts)
			}
		case CrashBeforeCommit:
			if r.SlotsRolledBack != int64(want.muts) {
				return fmt.Errorf("restart %d after %s undid %d slots, want exactly %d (fully logged, uncommitted)",
					i, want.point, r.SlotsRolledBack, want.muts)
			}
		}
	}
	if len(verifies) < shards {
		return fmt.Errorf("%d verify events, want >= %d (one per shard)", len(verifies), shards)
	}
	for _, v := range verifies {
		if v.Outcome != "ok" {
			return fmt.Errorf("shard %d verify outcome %q: %s", v.Shard, v.Outcome, v.Err)
		}
	}
	return nil
}

// crashBatchFor builds a batch of SETs routed to shard sh (key mod shards
// == shard id), each on a distinct slot, to die inside of.
func crashBatchFor(sh *Shard, shards int) *Batch {
	b := &Batch{}
	seen := make(map[int]bool)
	start := uint64(sh.ID())
	if start == 0 {
		start = uint64(shards) // keys must be >= 1
	}
	for key := start; len(b.SetKeys) < 8; key += uint64(shards) {
		slot := sh.SlotOf(key)
		if seen[slot] {
			continue
		}
		seen[slot] = true
		b.SetKeys = append(b.SetKeys, key)
		b.SetVals = append(b.SetVals, (key^0xdeadbeef)|1)
	}
	return b
}
