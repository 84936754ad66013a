package serve

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gpm-sim/gpm/internal/obs"
	"github.com/gpm-sim/gpm/internal/sim"
	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// queueDepth bounds each shard's admission queue and staged backlog
// (requests); a connection pipelines at most twice this many replies.
const queueDepth = 1024

// Config configures one serving node.
type Config struct {
	Mode        workloads.Mode
	Shards      int           // keyspace partitions (key mod Shards)
	Sets        int           // hash sets per shard
	MaxBatch    int           // ops per batch before forced dispatch
	BatchWait   time.Duration // cap on how long a starved pipeline holds a partial epoch
	DedupWindow int           // committed request IDs remembered per shard (0 = 4096)
	Seed        uint64
	Telemetry   *telemetry.Telemetry // optional; nil disables metrics

	// Trace, when set, samples per-request pipeline traces (admission ID
	// head sampling plus a slow-latency threshold); nil disables. Audit,
	// when set, receives the recovery audit trail (drain/crash/restart/
	// verify events) from the server and its shards; nil disables.
	Trace *obs.RequestTracer
	Audit *obs.AuditLog

	// BreakSI is the chaos negative control: transaction COMMITs skip the
	// commit-window conflict check, so concurrent read-modify-write
	// transactions lose updates — which the campaign's snapshot-isolation
	// invariant must catch.
	BreakSI bool
}

// Normalize fills zero fields with serving defaults and validates the rest.
func (c *Config) Normalize() error {
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.Sets == 0 {
		c.Sets = 1 << 10
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 256
	}
	if c.BatchWait == 0 {
		c.BatchWait = 500 * time.Microsecond
	}
	if c.DedupWindow == 0 {
		c.DedupWindow = 4096
	}
	if c.Shards < 1 || c.Sets < 1 || c.MaxBatch < 1 || c.BatchWait < 0 || c.DedupWindow < 1 {
		return fmt.Errorf("serve: invalid config (shards=%d sets=%d batch=%d wait=%s window=%d)",
			c.Shards, c.Sets, c.MaxBatch, c.BatchWait, c.DedupWindow)
	}
	if !ModeSupported(c.Mode) {
		return fmt.Errorf("serve: mode %s cannot serve", c.Mode)
	}
	return nil
}

// request is one parsed client operation (see parseLine for its ops); the
// ones that reach a shard are 'S', 'G', 'D' and 'C' (transaction COMMIT).
type request struct {
	op       byte
	key      uint64
	val      uint64
	snap     uint64        // snapshot of a GET @snap, ABORT or COMMIT
	id       uint64        // admission ID (server-wide, monotone; trace sampling key)
	rid      ReqID         // client-assigned ID (zero for legacy unidentified ops)
	fpr      uint64        // payload fingerprint (op, key, val) for ID-reuse detection
	enq      time.Time     // client-enqueue instant (read off the wire)
	admitted time.Time     // batcher admission instant (zero until admitted)
	done     chan string   // receives exactly one reply line
	dups     []chan string // duplicate arrivals of rid awaiting this request's outcome

	// txn carries a transaction COMMIT's write set (op 'C' only).
	txn *txnOp
	// pre is the precomputed reply of a GET that rides an epoch only for
	// durability ordering: its value was resolved at admission from the
	// staged slot image (getPos -2), not from a kernel read.
	pre string
}

// line prefixes a reply body with the request's ID, echoing what the
// client sent ("@7.42 OK") so retried requests match replies by identity
// rather than by stream position.
func (r *request) line(body string) string {
	if r.rid.Zero() {
		return body
	}
	return r.rid.String() + " " + body
}

// valueReply is the body of every GET reply: the value, or NOTFOUND.
func valueReply(val uint64, found bool) string {
	if !found {
		return "NOTFOUND"
	}
	return "VALUE " + strconv.FormatUint(val, 10)
}

// fingerprint condenses a request payload for ID-reuse detection: a
// committed ID presented again with a different (op, key, val) is a client
// bug and is rejected rather than silently replayed.
func fingerprint(op byte, key, val uint64) uint64 {
	return sim.Mix64(uint64(op)*0x9e3779b97f4a7c15 ^ sim.Mix64(key) ^ sim.Mix64(val+0xd1b54a32d192ed03))
}

// opName spells a request op byte for traces and logs.
func opName(op byte) string {
	switch op {
	case 'S':
		return "SET"
	case 'G':
		return "GET"
	case 'D':
		return "DEL"
	case 'C':
		return "COMMIT"
	default:
		return string(op)
	}
}

// Server accepts TCP connections speaking the line protocol of conn.go
// and dispatches requests to per-shard pipeline workers. Replies are
// written in request order per connection, each only after the persist
// epoch containing its mutation is durable (hot reads with no pending write
// may be answered from the shard's committed image, durable by
// construction).
type Server struct {
	cfg     Config
	workers []*shardWorker
	reg     *telemetry.Registry
	started time.Time

	// oracle is the server-wide monotonic timestamp authority for MVCC
	// snapshot isolation; snaps tracks live snapshots so the MVCC read
	// floor never rises past an open transaction.
	oracle *tsOracle
	snaps  *snapRegistry

	ln       net.Listener
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	connWG   sync.WaitGroup
	draining atomic.Bool
	nextID   atomic.Uint64 // admission IDs for request tracing

	cRejected *telemetry.Counter
}

// NewServer builds the shards and their pipeline workers (not yet listening).
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		conns:  make(map[net.Conn]struct{}),
		oracle: newOracle(0),
		snaps:  newSnapRegistry(),

		started: time.Now(),
	}
	var reg *telemetry.Registry
	if cfg.Telemetry != nil {
		reg = cfg.Telemetry.Registry()
	}
	s.reg = reg
	s.cRejected = reg.Counter("serve.rejected")
	for i := 0; i < cfg.Shards; i++ {
		sh, err := NewShard(i, ShardConfig{
			Mode:     cfg.Mode,
			Sets:     cfg.Sets,
			MaxBatch: cfg.MaxBatch,
			Seed:     cfg.Seed + uint64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		if cfg.Telemetry != nil {
			sh.Env().Ctx.AttachTelemetry(cfg.Telemetry, fmt.Sprintf("serve/shard%d", i))
		}
		sh.SetAudit(cfg.Audit)
		w := newShardWorker(sh, cfg, reg)
		w.oracle = s.oracle
		w.snaps = s.snaps
		s.workers = append(s.workers, w)
		go w.run()
	}
	return s, nil
}

// Shards exposes the shard stores (for post-drain verification and crash
// testing). Only safe to use after Shutdown has returned.
func (s *Server) Shards() []*Shard {
	out := make([]*Shard, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.shard
	}
	return out
}

// AckViolations cross-checks every mutation ack the dedup filter derived
// from a high-water mark alone (no window entry — the "seq <= hwm means
// committed" shortcut) against the shard's applied-ID tally, and returns
// the IDs that were acknowledged without having been applied exactly once.
// Each such ID is an acknowledged lost update (or a duplicate apply the
// tally also reports): the contiguity argument behind the shortcut failed.
// Only safe to use after Shutdown has returned.
func (s *Server) AckViolations() []ReqID {
	var out []ReqID
	for _, w := range s.workers {
		for _, rid := range w.dedup.absorbed {
			if w.shard.tally[rid] != 1 {
				out = append(out, rid)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CID != out[j].CID {
			return out[i].CID < out[j].CID
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Draining reports whether Shutdown has begun (health endpoints use this
// to fail readiness before the listener disappears).
func (s *Server) Draining() bool { return s.draining.Load() }

// Uptime is the wall time since the server was built.
func (s *Server) Uptime() time.Duration { return time.Since(s.started) }

// Registry exposes the server's metrics registry (nil when telemetry is
// disabled); the admin plane scrapes it.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// ShardStatus is one shard's row in the /statusz document, read from the
// shard's published metrics (safe from any goroutine while serving).
type ShardStatus struct {
	ID             int   `json:"id"`
	Ops            int64 `json:"ops"`
	Batches        int64 `json:"batches"`
	QueueDepth     int64 `json:"queue_depth"`
	StagedEpochs   int64 `json:"staged_epochs"`
	TargetFill     int64 `json:"target_fill"`
	LastEpochFill  int64 `json:"last_epoch_fill"`
	ConflictChains int64 `json:"conflict_chains"`
	HotSlots       int64 `json:"hot_slots"`
	CacheHits      int64 `json:"cache_hits"`
	Errors         int64 `json:"errors"`
	DedupHits      int64 `json:"dedup_hits"`
	DedupReuse     int64 `json:"dedup_reuse"`
	Restarts       int64 `json:"restarts"`
	Squashes       int64 `json:"squashes"`
	TxnCommits     int64 `json:"txn_commits"`
	TxnAborts      int64 `json:"txn_aborts"`
	TxnRetries     int64 `json:"txn_conflict_retries"`
}

// Status reports per-shard pipeline state for /statusz. Values come from
// the telemetry counters/gauges the pipeline already publishes, so reading
// them races nothing; with telemetry disabled every row is zeros.
func (s *Server) Status() []ShardStatus {
	out := make([]ShardStatus, len(s.workers))
	for i, w := range s.workers {
		out[i] = ShardStatus{
			ID:             w.shard.ID(),
			Ops:            w.cOps.Value(),
			Batches:        w.cBatches.Value(),
			QueueDepth:     w.gQueue.Value(),
			StagedEpochs:   w.gStaged.Value(),
			TargetFill:     w.gTarget.Value(),
			LastEpochFill:  w.gOccupancy.Value(),
			ConflictChains: w.cChains.Value(),
			HotSlots:       w.gHotSlots.Value(),
			CacheHits:      w.cCacheHits.Value(),
			Errors:         w.cErrors.Value(),
			DedupHits:      w.cDedupHits.Value(),
			DedupReuse:     w.cDedupReuse.Value(),
			Restarts:       w.cRestarts.Value(),
			Squashes:       w.cSquashes.Value(),
			TxnCommits:     w.cTxnCommits.Value(),
			TxnAborts:      w.cTxnAborts.Value(),
			TxnRetries:     w.cTxnRetries.Value(),
		}
	}
	return out
}

// Listen binds addr ("host:port"; port 0 picks a free one) and returns the
// bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// ServeOn accepts connections from a caller-provided listener instead of
// a bound TCP socket — chaos campaigns drive the server over in-memory
// pipes and fault-injecting listener wrappers this way. Blocks like Serve;
// Shutdown closes the listener.
func (s *Server) ServeOn(ln net.Listener) error {
	s.ln = ln
	return s.Serve()
}

// Serve accepts connections until the listener closes (via Shutdown).
func (s *Server) Serve() error {
	if s.ln == nil {
		return fmt.Errorf("serve: Serve before Listen")
	}
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil // closed by Shutdown
			}
			return err
		}
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetNoDelay(true) // replies are small lines; Nagle+delayed-ACK adds ~40ms
		}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.handleConn(c)
	}
}

// Shutdown drains gracefully: stop accepting, tell every worker to flush
// its pending epochs without holding for more arrivals, service everything
// already accepted, and stop. Connections still open after timeout are
// force-closed. Safe to call once.
func (s *Server) Shutdown(timeout time.Duration) {
	s.draining.Store(true)
	s.cfg.Audit.Record(obs.AuditEvent{
		Type: obs.AuditDrain, Shard: -1, Mode: s.cfg.Mode.String(),
		Detail: fmt.Sprintf("graceful drain, timeout %s", timeout),
	})
	if s.ln != nil {
		s.ln.Close()
	}
	// Release pending epochs immediately: replies must not wait out the
	// admission hold once the server is going down.
	for _, w := range s.workers {
		close(w.drainCh)
	}
	done := make(chan struct{})
	go func() { s.connWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	// All connection readers are gone; no more sends into worker queues.
	for _, w := range s.workers {
		close(w.reqs)
	}
	for _, w := range s.workers {
		<-w.done
	}
}

// shardFor routes a key to its partition.
func (s *Server) shardFor(key uint64) *shardWorker {
	return s.workers[key%uint64(len(s.workers))]
}

// slotStage is the staged final image of one store slot inside one epoch:
// write-squashing folds every same-slot logical mutation over it, and the
// seal synthesizes at most one kernel op per slot from base vs final image.
type slotStage struct {
	baseKey, baseVal uint64 // slot occupant when the epoch first touched it
	key, val         uint64 // staged final occupant (key 0 = empty)
	firstKey         uint64 // first logical key staged here (no-op DEL synthesis)
}

// epochBatch is one persist epoch moving through the shard pipeline: a
// staged batch, the requests riding it, and the per-epoch slot images that
// let every same-slot logical mutation squash into ONE kernel op instead of
// sealing the epoch and chaining into the next.
type epochBatch struct {
	seq     uint64
	batch   Batch
	pending []*request         // ops riding this epoch, arrival order
	getPos  []int              // per pending op: batch.GetKeys index; -1 mutation; -2 precomputed read
	slots   map[int]*slotStage // staged slot images (this epoch's writes)
	read    map[int]bool       // slots this epoch batch-reads
	clients map[uint64]bool    // cids whose epoch-order floor this epoch holds

	// Filled by the applier, consumed by the batcher's onCommit:
	replies []string          // reply line per pending op (dedup windowing)
	ok      bool              // epoch committed (false: error or rolled back)
	resync  map[uint64]uint64 // non-nil after a crash-restart: PM hwm snapshot
	// Valid only when resync != nil: whether the crashed epoch's transaction
	// was durable before the power cut (CrashBeforeReply) or rolled back — a
	// rolled-back crash flushes the staged pipeline and opens dedup holes —
	// and whether the shard recovered at all.
	committed, recovered bool

	sealedAt  time.Time     // dispatch instant (epoch lag measures from here)
	applyWall time.Duration // wall cost of Apply, fed back to the controller
}

// fillBuckets bounds the serve.shard*.batch_fill histograms (ops/epoch).
var fillBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// shardWorker owns one Shard and runs its two pipeline stages:
//
//	batcher (run): admits requests into a queue of staged epochs — batch
//	  N+1 forms while batch N is on the device, so admission never blocks
//	  on kernel or persist time. Writes to a slot with a staged epoch
//	  squash into that epoch's slot image, a GET behind a pending write
//	  reads the staged image, and a write behind a staged kernel read of
//	  its slot goes to a later epoch (see admit); an adaptive controller
//	  decides how long a starved pipeline holds a partial epoch. Hot GETs
//	  with no pending mutation are answered straight from the shard's
//	  committed image, no kernel trip.
//	applier (applyLoop): executes one epoch at a time on the shard
//	  (stage -> kernel -> persist) and group-commits every reply in the
//	  epoch the moment it is durable.
//
// All admission maps and the hot-key sketch are owned by the batcher
// goroutine; the applier touches only the shard and the reply futures.
type shardWorker struct {
	shard *Shard
	cfg   Config

	// oracle/snaps are shared server-wide MVCC state (see Server); the
	// batcher allocates a commit timestamp per logical mutation and the
	// commit path releases them so the stable snapshot floor advances.
	oracle *tsOracle
	snaps  *snapRegistry

	reqs    chan *request
	drainCh chan struct{} // closed by Shutdown: flush eagerly from now on
	done    chan struct{}

	dispatchCh  chan *epochBatch // batcher -> applier, buffered 1 (double buffer)
	commitCh    chan *epochBatch // applier -> batcher, buffered 1
	applierDone chan struct{}

	ctrl   *batchController
	sketch *hotKeySketch

	// batcher-owned pipeline state
	staged     []*epochBatch     // staged[0] is next to dispatch
	nextSeq    uint64            // seq the next appended epoch gets
	inflight   *epochBatch       // epoch on the device, nil when idle
	lastMut    map[int]uint64    // slot -> seq of latest pending epoch mutating it
	lastRead   map[int]uint64    // slot -> seq of latest pending epoch batch-reading it
	lastCli    map[uint64]uint64 // cid -> seq of latest pending epoch carrying its ops
	dedup      *dedupState       // exactly-once admission filter
	stagedOps  int               // ops across staged epochs (admission backpressure)
	drained    bool
	reqsClosed bool
	shardDown  bool // recovery failed: the image no longer describes the store

	gQueue      *telemetry.Gauge
	gOccupancy  *telemetry.Gauge
	gHotSlots   *telemetry.Gauge
	gStaged     *telemetry.Gauge
	gTarget     *telemetry.Gauge
	hReqUS      *telemetry.Histogram
	hBatchSim   *telemetry.Histogram
	hFill       *telemetry.Histogram
	hQueueWait  *telemetry.Histogram
	hEpochLag   *telemetry.Histogram
	cBatches    *telemetry.Counter
	cOps        *telemetry.Counter
	cChains     *telemetry.Counter
	cCacheHits  *telemetry.Counter
	cErrors     *telemetry.Counter
	cDedupHits  *telemetry.Counter
	cDedupReuse *telemetry.Counter
	cDedupHolds *telemetry.Counter
	cRestarts   *telemetry.Counter
	cFlushed    *telemetry.Counter
	cSquashes   *telemetry.Counter
	cTxnCommits *telemetry.Counter
	cTxnAborts  *telemetry.Counter
	cTxnRetries *telemetry.Counter

	commits uint64 // epochs retired since start (MVCC floor cadence)
}

func newShardWorker(sh *Shard, cfg Config, reg *telemetry.Registry) *shardWorker {
	p := fmt.Sprintf("serve.shard%d.", sh.ID())
	return &shardWorker{
		shard:       sh,
		cfg:         cfg,
		reqs:        make(chan *request, queueDepth),
		drainCh:     make(chan struct{}),
		done:        make(chan struct{}),
		dispatchCh:  make(chan *epochBatch, 1),
		commitCh:    make(chan *epochBatch, 1),
		applierDone: make(chan struct{}),
		ctrl:        newBatchController(cfg.MaxBatch, cfg.BatchWait),
		sketch:      newHotKeySketch(hotKeys),
		lastMut:     make(map[int]uint64),
		lastRead:    make(map[int]uint64),
		lastCli:     make(map[uint64]uint64),
		dedup:       newDedupState(cfg.DedupWindow),
		gQueue:      reg.Gauge(p + "queue_depth"),
		gOccupancy:  reg.Gauge(p + "batch_occupancy"),
		gHotSlots:   reg.Gauge(p + "hot_slots"),
		gStaged:     reg.Gauge(p + "staged_epochs"),
		gTarget:     reg.Gauge(p + "target_fill"),
		hReqUS:      reg.Histogram("serve.request_us", telemetry.LatencyBucketsUS),
		hBatchSim:   reg.Histogram("serve.batch_sim_us", telemetry.LatencyBucketsUS),
		hFill:       reg.Histogram(p+"batch_fill", fillBuckets),
		hQueueWait:  reg.Histogram("serve.queue_wait_us", telemetry.LatencyBucketsUS),
		hEpochLag:   reg.Histogram("serve.epoch_lag_us", telemetry.LatencyBucketsUS),
		cBatches:    reg.Counter(p + "batches"),
		cOps:        reg.Counter(p + "ops"),
		cChains:     reg.Counter(p + "conflict_chains"),
		cCacheHits:  reg.Counter(p + "cache_hits"),
		cErrors:     reg.Counter(p + "errors"),
		cDedupHits:  reg.Counter(p + "dedup_hits"),
		cDedupReuse: reg.Counter(p + "dedup_reuse"),
		cDedupHolds: reg.Counter(p + "dedup_holds"),
		cRestarts:   reg.Counter(p + "restarts"),
		cFlushed:    reg.Counter(p + "flushed_riders"),
		cSquashes:   reg.Counter(p + "squashes"),
		cTxnCommits: reg.Counter(p + "txn_commits"),
		cTxnAborts:  reg.Counter(p + "txn_aborts"),
		cTxnRetries: reg.Counter(p + "txn_conflict_retries"),
	}
}

// headSeq is the sequence of the next epoch to dispatch (or to create,
// when nothing is staged).
func (w *shardWorker) headSeq() uint64 {
	return w.nextSeq - uint64(len(w.staged))
}

// appendEpoch grows the staged queue by one empty epoch.
func (w *shardWorker) appendEpoch() *epochBatch {
	eb := &epochBatch{
		seq:     w.nextSeq,
		slots:   make(map[int]*slotStage),
		read:    make(map[int]bool),
		clients: make(map[uint64]bool),
	}
	w.nextSeq++
	w.staged = append(w.staged, eb)
	return eb
}

// epochAt resolves a pipeline seq to its epoch: a staged one, or the one on
// the device. Returns nil for already-retired seqs.
func (w *shardWorker) epochAt(seq uint64) *epochBatch {
	if w.inflight != nil && w.inflight.seq == seq {
		return w.inflight
	}
	if i := int(seq - w.headSeq()); i >= 0 && i < len(w.staged) {
		return w.staged[i]
	}
	return nil
}

// fitsCID reports whether an identified request can ride an epoch without
// overflowing the dedup redo record (one advance per distinct client).
func (w *shardWorker) fitsCID(e *epochBatch, rid ReqID) bool {
	if rid.Zero() || e.clients[rid.CID] {
		return true
	}
	return len(e.clients) < mutCap(w.cfg.MaxBatch)
}

// stageSlot returns (creating if needed) the epoch's staged image of slot,
// basing a fresh stage on the latest pending image of the slot — an earlier
// staged/in-flight epoch's stage if one exists, else the committed occupant.
func (w *shardWorker) stageSlot(eb *epochBatch, slot int, firstKey uint64) *slotStage {
	if st := eb.slots[slot]; st != nil {
		return st
	}
	var bk, bv uint64
	if m, ok := w.lastMut[slot]; ok && m < eb.seq {
		if prev := w.epochAt(m); prev != nil {
			if pst := prev.slots[slot]; pst != nil {
				bk, bv = pst.key, pst.val
			}
		}
	} else {
		bk, bv = w.shard.mvcc.slotImage(slot)
	}
	st := &slotStage{baseKey: bk, baseVal: bv, key: bk, val: bv, firstKey: firstKey}
	eb.slots[slot] = st
	return st
}

// stageWrite folds one logical mutation into an epoch: the slot image
// advances, and the batch's version row (key, value, delete, commit ts,
// request ID) records the mutation for the MVCC slot rows and the apply
// tally.
func (w *shardWorker) stageWrite(eb *epochBatch, slot int, key, val uint64, del bool, ts uint64, rid ReqID) {
	st := w.stageSlot(eb, slot, key)
	if del {
		if st.key == key {
			st.key, st.val = 0, 0
		}
	} else {
		st.key, st.val = key, val
	}
	eb.batch.VerKeys = append(eb.batch.VerKeys, key)
	eb.batch.VerVals = append(eb.batch.VerVals, val)
	eb.batch.VerDel = append(eb.batch.VerDel, del)
	eb.batch.VerTS = append(eb.batch.VerTS, ts)
	eb.batch.VerIDs = append(eb.batch.VerIDs, rid)
	if m, ok := w.lastMut[slot]; !ok || m < eb.seq {
		w.lastMut[slot] = eb.seq
	}
}

// stagedValue resolves a GET against the latest pending image of its slot
// (the caller established one exists): found=false means the slot's staged
// final state does not hold the key.
func (w *shardWorker) stagedValue(key uint64, slot int) (val uint64, found bool) {
	eb := w.epochAt(w.lastMut[slot])
	if eb == nil {
		return 0, false
	}
	st := eb.slots[slot]
	if st == nil || st.key != key {
		return 0, false
	}
	return st.val, true
}

// epochFrom returns the first staged epoch with seq >= floor satisfying
// fits, appending fresh epochs as needed. floor must be >= headSeq.
func (w *shardWorker) epochFrom(floor uint64, fits func(*epochBatch) bool) *epochBatch {
	for i := int(floor - w.headSeq()); ; i++ {
		for i >= len(w.staged) {
			w.appendEpoch()
		}
		if fits(w.staged[i]) {
			return w.staged[i]
		}
	}
}

// admit places one request into the pipeline: cache-served, or assigned to
// an epoch under the write-squashing rules —
//
//	SET then GET  same slot: the GET's value is resolved at admission from
//	              the staged slot image and the reply rides the mutating
//	              epoch (or later) for durability ordering only;
//	GET then SET  same slot: the SET goes to an epoch AFTER the staged
//	              kernel GET (the batched read must not observe it);
//	SET then SET  same slot: the second SQUASHES into the same epoch — the
//	              slot image folds, each logical mutation keeps its own
//	              MVCC commit timestamp, and the kernel runs one op.
//
// Hot-key write conflicts therefore share one kernel epoch instead of
// chaining into consecutive pipeline stages; the per-epoch slot-conflict
// seal survives only as the transaction commit-window check (admitTxn).
func (w *shardWorker) admit(r *request) {
	now := time.Now()
	r.admitted = now
	w.hQueueWait.Observe(int64(now.Sub(r.enq) / time.Microsecond))
	w.ctrl.observeArrival(now)

	// Exactly-once gate: a request ID already in flight, windowed, or below
	// its client's committed high-water mark never reaches an epoch again.
	if !r.rid.Zero() {
		switch verdict, line := w.dedup.check(r); verdict {
		case dedupAttach:
			w.cDedupHits.Inc()
			if r.op == 'C' {
				w.cTxnRetries.Inc()
			}
			return
		case dedupReplay:
			w.cDedupHits.Inc()
			if r.op == 'C' {
				w.cTxnRetries.Inc()
			}
			r.done <- line
			return
		case dedupReject:
			w.cDedupReuse.Inc()
			r.done <- line
			return
		case dedupHold:
			w.cDedupHolds.Inc()
			if r.op == 'C' {
				w.cTxnRetries.Inc()
			}
			r.done <- line
			return
		}
	}

	head := w.headSeq()
	// cliFloor keeps one client's requests committing in seq order on a
	// shard — the property that makes "seq <= high-water mark" equivalent
	// to "committed" even when conflict ordering would otherwise let a
	// later, unconflicted request overtake an earlier one.
	cliFloor := head
	if !r.rid.Zero() {
		if c, ok := w.lastCli[r.rid.CID]; ok && c > cliFloor {
			cliFloor = c
		}
	}

	if r.op == 'C' {
		w.admitTxn(r, now, cliFloor)
		return
	}

	slot := w.shard.SlotOf(r.key)
	if r.op == 'G' {
		w.sketch.Observe(r.key)
		m, mutPending := w.lastMut[slot]
		if !mutPending {
			if occ, val := w.shard.mvcc.slotImage(slot); occ != 0 && w.sketch.Hot(occ) && !w.shardDown {
				// Committed state of a hot slot with no pending write:
				// durable by construction, reply without a kernel trip. An
				// occupant other than the key means the key is absent.
				line := r.line(valueReply(val, occ == r.key))
				r.done <- line
				if !r.rid.Zero() {
					// Window the reply (retries replay it) but never register
					// pending or touch PM: image hits ride no epoch.
					w.dedup.remember(r.rid, r.fpr, line)
				}
				w.cCacheHits.Inc()
				w.hReqUS.Observe(int64(now.Sub(r.enq) / time.Microsecond))
				if tr := w.cfg.Trace; tr != nil {
					total := now.Sub(r.enq)
					if reason, ok := tr.ShouldCapture(r.id, total); ok {
						off := float64(total) / 1e3
						tr.Add(obs.ReqTrace{
							ID: r.id, Shard: w.shard.ID(), Op: opName(r.op), Key: r.key,
							Reason: reason, Start: r.enq, TotalUS: off,
							Stages: []obs.StagePoint{
								{Stage: "admit", OffsetUS: off},
								{Stage: "cache-reply", OffsetUS: off},
							},
						})
					}
				}
				return
			}
		} else {
			// Staged-image read: the slot has a pending mutation, so the
			// GET's value is already decided by arrival order. Resolve it
			// NOW from the staged image, and ride the mutating epoch (or the
			// client's floor) so the reply still waits for durability. No
			// read mark is set — later same-slot writes keep squashing.
			r.pre = r.line(valueReply(w.stagedValue(r.key, slot)))
			floor := cliFloor
			if m > floor {
				floor = m
			}
			eb := w.epochFrom(floor, func(e *epochBatch) bool {
				return w.fitsCID(e, r.rid)
			})
			eb.getPos = append(eb.getPos, -2)
			w.finishAdmit(eb, r)
			return
		}
		// Batched kernel read: not hot, with no staged mutation.
		eb := w.epochFrom(cliFloor, func(e *epochBatch) bool {
			return len(e.batch.GetKeys) < w.cfg.MaxBatch && w.fitsCID(e, r.rid)
		})
		eb.getPos = append(eb.getPos, len(eb.batch.GetKeys))
		eb.batch.GetKeys = append(eb.batch.GetKeys, r.key)
		eb.read[slot] = true
		if g, ok := w.lastRead[slot]; !ok || eb.seq > g {
			w.lastRead[slot] = eb.seq
		}
		w.finishAdmit(eb, r)
		return
	}

	// 'S', 'D': try to squash into the slot's latest staged epoch; fall
	// back to chaining past it (capacity, client-order floor, or the epoch
	// already being on the device) or past a staged kernel read.
	floor := cliFloor
	conflict := false
	if m, ok := w.lastMut[slot]; ok {
		if m >= head && m >= cliFloor {
			if eb := w.epochAt(m); eb != nil && eb.slots[slot] != nil &&
				len(eb.batch.VerKeys) < mutCap(w.cfg.MaxBatch) && w.fitsCID(eb, r.rid) {
				val := r.val
				if r.op == 'D' {
					val = 0
				}
				w.stageWrite(eb, slot, r.key, val, r.op == 'D', w.oracle.alloc(), r.rid)
				eb.getPos = append(eb.getPos, -1)
				w.cSquashes.Inc()
				w.finishAdmit(eb, r)
				return
			}
		}
		if m+1 > floor {
			floor, conflict = m+1, true
		}
	}
	if g, ok := w.lastRead[slot]; ok && g+1 > floor {
		floor, conflict = g+1, true
	}
	eb := w.epochFrom(floor, func(e *epochBatch) bool {
		return len(e.slots) < w.cfg.MaxBatch &&
			len(e.batch.VerKeys) < mutCap(w.cfg.MaxBatch) && w.fitsCID(e, r.rid)
	})
	if conflict {
		w.cChains.Inc()
	}
	val := r.val
	if r.op == 'D' {
		val = 0
	}
	w.stageWrite(eb, slot, r.key, val, r.op == 'D', w.oracle.alloc(), r.rid)
	eb.getPos = append(eb.getPos, -1)
	w.finishAdmit(eb, r)
}

// admitTxn validates and stages a transaction COMMIT (op 'C'). Conflict
// detection is first-committer-wins at store-slot granularity: a write key
// whose slot has a staged or in-flight uncommitted mutation loses to the
// pending writer, and one whose newest committed version is above the
// transaction's snapshot lost to an already-committed writer. A valid
// commit stages ALL its writes into ONE epoch at a single commit timestamp
// — the transaction is atomic because the epoch's group-commit is.
func (w *shardWorker) admitTxn(r *request, now time.Time, cliFloor uint64) {
	t := r.txn
	if !w.cfg.BreakSI {
		for _, k := range t.keys {
			slot := w.shard.SlotOf(k)
			_, staged := w.lastMut[slot]
			if staged || w.shard.mvcc.latestTS(k, slot) > r.snap {
				line := r.line("ABORT " + strconv.FormatUint(k, 10))
				w.cTxnAborts.Inc()
				if !r.rid.Zero() {
					// The verdict is decided: record it in the permanent
					// abort ledger so retries replay ABORT instead of
					// re-validating (or worse, being hwm-absorbed as
					// committed).
					w.dedup.rememberAbort(r.rid, r.fpr, line)
				}
				r.done <- line
				w.hReqUS.Observe(int64(now.Sub(r.enq) / time.Microsecond))
				return
			}
		}
	}
	slotSet := make(map[int]bool, len(t.keys))
	floor := cliFloor
	for _, k := range t.keys {
		slot := w.shard.SlotOf(k)
		slotSet[slot] = true
		if g, ok := w.lastRead[slot]; ok && g+1 > floor {
			floor = g + 1
		}
	}
	eb := w.epochFrom(floor, func(e *epochBatch) bool {
		fresh := 0
		for slot := range slotSet {
			if e.slots[slot] == nil {
				fresh++
			}
		}
		return len(e.slots)+fresh <= w.cfg.MaxBatch &&
			len(e.batch.VerKeys)+len(t.keys) <= mutCap(w.cfg.MaxBatch) &&
			w.fitsCID(e, r.rid)
	})
	t.cts = w.oracle.alloc()
	for i, k := range t.keys {
		rid := ReqID{}
		if i == 0 {
			rid = r.rid // one apply-tally entry per commit unit
		}
		val := t.vals[i]
		if t.dels[i] {
			val = 0
		}
		w.stageWrite(eb, w.shard.SlotOf(k), k, val, t.dels[i], t.cts, rid)
	}
	eb.getPos = append(eb.getPos, -1)
	w.finishAdmit(eb, r)
}

// finishAdmit is the common admission tail: dedup registration, client
// epoch-order floor, and the epoch's pending list.
func (w *shardWorker) finishAdmit(eb *epochBatch, r *request) {
	if !r.rid.Zero() {
		w.dedup.register(r)
		w.lastCli[r.rid.CID] = eb.seq
		eb.clients[r.rid.CID] = true
	}
	eb.pending = append(eb.pending, r)
	w.stagedOps++
}

// dispatch seals the head epoch and hands it to the applier. Only called
// when the applier is idle, so the buffered send cannot block.
func (w *shardWorker) dispatch() {
	eb := w.staged[0]
	w.staged = w.staged[1:]
	w.stagedOps -= len(eb.pending)
	eb.batch.LogicalOps = len(eb.pending)
	w.sealKernel(eb)
	w.sealAdvances(eb)
	eb.sealedAt = time.Now()
	w.inflight = eb
	w.hFill.Observe(int64(len(eb.pending)))
	w.dispatchCh <- eb
}

// sealKernel synthesizes the epoch's kernel mutation ops from its staged
// slot images: at most one op per touched slot, no matter how many logical
// mutations squashed onto it. A slot whose final image equals its base
// still gets a no-op kernel op (an idempotent rewrite, or a DEL of a key
// known absent) so a mutation-bearing epoch always runs the full persist
// path — its dedup advances, version rows, and oracle reservation must
// commit inside a transaction window. The apply tally runs off the
// version rows, not the kernel ops.
func (w *shardWorker) sealKernel(eb *epochBatch) {
	if len(eb.batch.VerKeys) == 0 {
		return
	}
	slots := make([]int, 0, len(eb.slots))
	for slot := range eb.slots {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	b := &eb.batch
	for _, slot := range slots {
		st := eb.slots[slot]
		switch {
		case st.key == st.baseKey && st.val == st.baseVal:
			if st.baseKey != 0 {
				b.SetKeys = append(b.SetKeys, st.baseKey)
				b.SetVals = append(b.SetVals, st.baseVal)
			} else {
				b.DelKeys = append(b.DelKeys, st.firstKey)
			}
		case st.key != 0:
			b.SetKeys = append(b.SetKeys, st.key)
			b.SetVals = append(b.SetVals, st.val)
		default:
			b.DelKeys = append(b.DelKeys, st.baseKey)
		}
	}
	b.OracleHWM = w.oracle.reserve()
}

// sealAdvances flattens the epoch's per-client high-water-mark advances
// (max seq per cid across its identified riders) into the batch, sorted by
// cid so the PM record and table writes are deterministic.
func (w *shardWorker) sealAdvances(eb *epochBatch) {
	if len(eb.clients) == 0 {
		return
	}
	adv := make(map[uint64]uint64, len(eb.clients))
	for _, r := range eb.pending {
		if !r.rid.Zero() && r.rid.Seq > adv[r.rid.CID] {
			adv[r.rid.CID] = r.rid.Seq
		}
	}
	cids := make([]uint64, 0, len(adv))
	for cid := range adv {
		cids = append(cids, cid)
	}
	sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })
	for _, cid := range cids {
		eb.batch.DedupCID = append(eb.batch.DedupCID, cid)
		eb.batch.DedupSeq = append(eb.batch.DedupSeq, adv[cid])
	}
}

// onCommit retires a finished epoch: per-slot and per-client ordering
// state whose horizon was this epoch is released, the dedup filter
// windows (or aborts) each identified rider, and the controller learns
// the apply cost. After a crash-restart the filter is first resynced from
// the PM-recovered high-water marks the applier snapshotted.
func (w *shardWorker) onCommit(eb *epochBatch) {
	w.inflight = nil
	w.ctrl.observeApply(eb.applyWall)
	rolledBack := eb.resync != nil && !eb.committed
	if eb.resync != nil {
		w.dedup.resync(eb.resync)
		w.cRestarts.Inc()
		// The read path starts cold after a crash-restart, and a shard
		// left down answers no GET from its image at all.
		w.sketch.Reset()
		w.shardDown = !eb.recovered
	}
	for i, r := range eb.pending {
		if r.rid.Zero() {
			continue
		}
		if eb.ok {
			w.dedup.commit(r, eb.replies[i])
		} else {
			w.dedup.abort(r, eb.replies[i])
			if rolledBack && r.op != 'G' {
				// The crash rolled this epoch's transaction back: its
				// mutations are holes in their clients' otherwise-contiguous
				// seq sequences. No later mutation of these clients may
				// commit (or be hwm-acked) until the hole's retry re-commits
				// — otherwise the advancing high-water mark would absorb the
				// retry of a mutation that never happened: an acknowledged
				// lost update. Rolled-back reads need no hole: they
				// re-execute on retry.
				w.dedup.addHole(r.rid)
			}
		}
	}
	if rolledBack {
		// Epochs staged behind the crashed one would commit seqs ABOVE the
		// holes just opened. Only one epoch is ever in the applier's hands,
		// so all of them are still batcher-owned: flush the whole staged
		// pipeline and let clients resend in seq order behind the holes.
		w.flushStaged()
	}
	// An epoch that failed or crashed is stable too (rolled back, or
	// committed with no reply acknowledged); a successful one released its
	// timestamps in the applier.
	if !eb.ok {
		w.oracle.release(eb.batch.VerTS...)
	}
	for slot := range eb.slots {
		if w.lastMut[slot] == eb.seq {
			delete(w.lastMut, slot)
		}
	}
	for slot := range eb.read {
		if w.lastRead[slot] == eb.seq {
			delete(w.lastRead, slot)
		}
	}
	for cid := range eb.clients {
		if w.lastCli[cid] == eb.seq {
			delete(w.lastCli, cid)
		}
	}
	w.commits++
	if w.commits%mvccFloorEvery == 0 {
		w.shard.mvcc.raiseFloor(w.snaps.watermark(w.oracle))
	}
}

// mvccFloorEvery is the epoch cadence of raising the MVCC read floor to
// the watermark. The lag is wire-visible: a snapshot stays readable for up
// to this many epochs after it is released.
const mvccFloorEvery = 16

// flushStaged aborts every epoch still staged behind a rolled-back
// crash-restart: identified riders are told to retry (and become holes, so
// their re-admission order is enforced), unidentified riders get the same
// outcome-unknown error as riders of the crashed epoch itself. Per-slot
// and per-client ordering state is rebuilt empty — it only ever described
// the epochs just flushed.
func (w *shardWorker) flushStaged() {
	for _, eb := range w.staged {
		w.oracle.release(eb.batch.VerTS...) // flushed units are stable: never applied
		for _, r := range eb.pending {
			var line string
			if r.rid.Zero() {
				line = "ERR shard restarted; outcome unknown"
			} else {
				line = r.line("RETRY")
				w.dedup.abort(r, line)
				if r.op != 'G' {
					w.dedup.addHole(r.rid)
				}
			}
			r.done <- line
			w.cFlushed.Inc()
		}
	}
	w.staged = nil
	w.stagedOps = 0
	w.lastMut = make(map[int]uint64)
	w.lastRead = make(map[int]uint64)
	w.lastCli = make(map[uint64]uint64)
}

// run is the batcher: it drains the admission queue into staged epochs,
// dispatches the head epoch when the applier is free and the controller
// agrees, and exits once the queue is closed and the pipeline is empty.
func (w *shardWorker) run() {
	defer close(w.done)
	go w.applyLoop()
	for {
		// Absorb everything already queued without blocking: this is what
		// fills epoch N+1 while epoch N is on the device.
		for !w.reqsClosed && w.stagedOps < queueDepth {
			select {
			case r, ok := <-w.reqs:
				if !ok {
					w.reqsClosed = true
				} else {
					w.admit(r)
					continue
				}
			default:
			}
			break
		}
		w.gQueue.Set(int64(len(w.reqs)))
		w.gStaged.Set(int64(len(w.staged)))
		w.gTarget.Set(int64(w.ctrl.target()))
		w.gHotSlots.Set(int64(w.sketch.hot))

		// Dispatch when the device is idle. The controller only gets a say
		// in holding the head epoch open when nothing else is staged
		// behind it — a conflict chain or overflow epoch waiting is load,
		// and load means dispatch now.
		var timer *time.Timer
		var timerC <-chan time.Time
		if w.inflight == nil && len(w.staged) > 0 {
			hold := time.Duration(0)
			if !w.drained && len(w.staged) == 1 {
				hold = w.ctrl.hold(time.Now(), w.staged[0].batch.Ops())
			}
			if hold <= 0 {
				w.dispatch()
			} else {
				timer = time.NewTimer(hold)
				timerC = timer.C
			}
		}

		if w.reqsClosed && w.inflight == nil && len(w.staged) == 0 {
			close(w.dispatchCh)
			<-w.applierDone
			return
		}

		var recvCh chan *request
		if !w.reqsClosed && w.stagedOps < queueDepth {
			recvCh = w.reqs
		}
		drainCh := w.drainCh
		if w.drained {
			drainCh = nil
		}
		select {
		case r, ok := <-recvCh:
			if !ok {
				w.reqsClosed = true
			} else {
				w.admit(r)
			}
		case eb := <-w.commitCh:
			w.onCommit(eb)
		case <-timerC:
			// Hold expired with no arrival: the next pass dispatches.
		case <-drainCh:
			w.drained = true
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// buildTrace assembles one sampled request's pipeline trace: stage points
// are microsecond offsets from the client-enqueue instant, placed at the
// instant each pipeline stage finished with the request. Apply's internal
// boundaries (stage/kernel/persist) come from the wall durations it
// reports, anchored at the applier's dispatch-receive instant.
func (w *shardWorker) buildTrace(r *request, eb *epochBatch, res *BatchResult, applyStart, reply time.Time, reason string) obs.ReqTrace {
	us := func(t time.Time) float64 { return float64(t.Sub(r.enq)) / 1e3 }
	stageEnd := applyStart.Add(res.WallStage)
	kernelEnd := stageEnd.Add(res.WallKernel)
	persistEnd := kernelEnd.Add(res.WallPersist)
	stages := make([]obs.StagePoint, 0, 7)
	stages = append(stages, obs.StagePoint{Stage: "admit", OffsetUS: us(r.admitted)})
	if r.op == 'C' {
		// Conflict validation happens inside admission; the distinct stage
		// point makes transaction traces self-describing.
		stages = append(stages, obs.StagePoint{Stage: "txn-validate", OffsetUS: us(r.admitted)})
	}
	stages = append(stages,
		obs.StagePoint{Stage: "seal", OffsetUS: us(eb.sealedAt)},
		obs.StagePoint{Stage: "stage", OffsetUS: us(stageEnd)},
		obs.StagePoint{Stage: "kernel", OffsetUS: us(kernelEnd)},
		obs.StagePoint{Stage: "persist", OffsetUS: us(persistEnd)},
		obs.StagePoint{Stage: "commit", OffsetUS: us(reply)},
	)
	return obs.ReqTrace{
		ID: r.id, Shard: w.shard.ID(), Op: opName(r.op), Key: r.key,
		Epoch: eb.seq, Reason: reason, Start: r.enq,
		TotalUS: us(reply),
		Stages:  stages,
	}
}

// handleCrash services a planned power failure that fired inside Apply:
// every rider is told to retry (the crash severed the ack path whether or
// not its batch committed — exactly the ambiguity the dedup window
// resolves), the shard is recovered per its fired plan (nested re-crashes,
// PM fault filtering), and the batcher is handed the recovery outcome and
// the PM-recovered high-water-mark snapshot to resync admission from.
// eb.ok stays false: riders leave the pipeline unwindowed, so their
// retries consult the recovered marks, not volatile leftovers. committed
// says whether the batch transaction survived the cut (CrashBeforeReply)
// or rolled back — the batcher flushes the staged pipeline and opens
// dedup holes only for a rollback.
func (w *shardWorker) handleCrash(eb *epochBatch, committed bool) {
	eb.committed = committed
	for i, r := range eb.pending {
		if r.rid.Zero() {
			eb.replies[i] = "ERR shard restarted; outcome unknown"
		} else {
			eb.replies[i] = r.line("RETRY")
		}
	}
	err := w.shard.RecoverFromPlan()
	eb.recovered = err == nil
	if err != nil {
		// Unrecoverable: leave the shard down; later epochs fail fast with
		// plain errors and clients give up through their retry caps.
		w.cErrors.Inc()
	} else {
		// Resume the oracle past the shard's durable reservation (a no-op
		// while the in-process oracle outlives the crash, but the honest
		// path), then rebuild the slot rows from the recovered image: every
		// occupied slot keeps one row at the rebuild timestamp, and the MVCC
		// read floor rises so pre-crash snapshots answer "snapshot too old"
		// instead of reading history the crash discarded.
		w.oracle.advanceTo(w.shard.RecoveredOracleHWM())
		w.shard.mvcc.reset(w.oracle.current())
	}
	eb.resync = w.shard.DedupSnapshot()
	// Notify the batcher before releasing replies: by the time a client can
	// act on a RETRY, admission has (usually) already resynced to the
	// recovered marks. A retry that still races in early just attaches to
	// its pending original and is re-RETRYed when the abort lands.
	w.commitCh <- eb
	for i, r := range eb.pending {
		r.done <- eb.replies[i]
	}
}

// applyLoop is the applier: one epoch at a time through the shard's
// stage -> kernel -> persist path, then group-commit — every reply in the
// epoch is released the moment the epoch is durable.
func (w *shardWorker) applyLoop() {
	defer close(w.applierDone)
	for eb := range w.dispatchCh {
		start := time.Now()
		res, err := w.shard.Apply(&eb.batch)
		eb.applyWall = time.Since(start)
		eb.replies = make([]string, len(eb.pending))
		if err != nil {
			var down *ShardDownError
			if errors.As(err, &down) {
				w.handleCrash(eb, down.Committed)
				continue
			}
			w.cErrors.Inc()
			for i, r := range eb.pending {
				eb.replies[i] = r.line("ERR " + err.Error())
				r.done <- eb.replies[i]
			}
			w.commitCh <- eb
			continue
		}
		eb.ok = true
		// Apply folded the epoch into the slot rows, so its commit
		// units are stable: release their timestamps before any reply goes
		// out, so a BEGIN that follows an acknowledged write reads it (a
		// new snapshot can never miss a version below its floor).
		w.oracle.release(eb.batch.VerTS...)
		now := time.Now()
		for i, r := range eb.pending {
			switch {
			case r.op == 'C':
				eb.replies[i] = r.line("COMMITTED " + strconv.FormatUint(r.txn.cts, 10))
				w.cTxnCommits.Inc()
			case r.op != 'G':
				eb.replies[i] = r.line("OK")
			case eb.getPos[i] == -2:
				eb.replies[i] = r.pre // staged-image read, resolved at admission
			default:
				v := res.GetVals[eb.getPos[i]]
				eb.replies[i] = r.line(valueReply(v, v != 0))
			}
			r.done <- eb.replies[i]
			w.hReqUS.Observe(int64(now.Sub(r.enq) / time.Microsecond))
			if tr := w.cfg.Trace; tr != nil {
				if reason, ok := tr.ShouldCapture(r.id, now.Sub(r.enq)); ok {
					tr.Add(w.buildTrace(r, eb, res, start, now, reason))
				}
			}
		}
		w.hEpochLag.Observe(int64(now.Sub(eb.sealedAt) / time.Microsecond))
		w.gOccupancy.Set(int64(len(eb.pending)))
		w.hBatchSim.ObserveMicros(res.SimTime)
		w.cBatches.Inc()
		w.cOps.Add(int64(len(eb.pending)))
		w.commitCh <- eb
	}
}
