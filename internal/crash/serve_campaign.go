package crash

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"github.com/gpm-sim/gpm/internal/faultnet"
	"github.com/gpm-sim/gpm/internal/obs"
	"github.com/gpm-sim/gpm/internal/pmem"
	"github.com/gpm-sim/gpm/internal/serve"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// ServeCampaign sweeps the crash surface of the whole serving stack, not
// just a workload: each run boots an isolated one-shard serve.Server on an
// in-memory pipe, arms a shard crash plan (pipeline crash point x PM fault
// model x nested re-crashes), fronts the server with a fault-injecting
// network schedule, and drives it with the exactly-once retry client. The
// run passes only if the end-to-end contract held through the power
// failure AND the network faults:
//
//   - accounting: every client op either resolved or was explicitly given
//     up (none vanished),
//   - exactly-once: no request ID was applied to the committed store more
//     than once (the lost-ack retry after CrashBeforeReply must be absorbed
//     by the PM-recovered dedup marks),
//   - consistency: the durable store image still matches the committed
//     oracle after recovery,
//   - snapshot isolation (Txn runs): transaction accounting, repeatable
//     reads inside open snapshots, and the per-key commit ledger all hold
//     for the v2 transaction clients sharing the run, and the ledger
//     checked at least one key,
//   - recovery audit: the run's audit trail records exactly the crash the
//     plan injected, and its restart's replay evidence matches that crash
//     point (see verifyAuditTrail),
//   - clean network: on the clean schedule no client saw an ERR reply or
//     gave up on an op.
//
// ServeCampaign is the serving stack's one crash harness: gpmchaos drives
// it, and nothing else injects crashes into a live server.
//
// Every run is precomputed into a descriptor before execution and fully
// isolated (its own simulated node, server, and pipe), so records commit by
// descriptor index and the report's Identity is the same for every Workers
// value. Identity hashes only stable run coordinates and the verdict class
// — never timing-dependent counters like retries or batch composition.
type ServeCampaign struct {
	// Seed anchors every derived fault and load seed; equal campaigns
	// replay identically.
	Seed uint64

	// Sweep axes; nil takes the default for each.
	Modes     []workloads.Mode    // nil = ServeStudyModes
	Schedules []faultnet.Schedule // nil = faultnet.Schedules()
	Models    []pmem.FaultModel   // nil = pmem.Models()
	Points    []serve.CrashPoint  // nil = serve.CrashPoints()

	// ApplyIndices selects which mutation-bearing applies the crash plan
	// fires on (1-based; see serve.ShardCrashPlan); nil = {1, 2}.
	ApplyIndices []int64

	// Ops is the client op count per run (0 = 32); Conns the client
	// connection count (0 = 1).
	Ops   int64
	Conns int

	// RecrashDepth injects that many nested power failures during each
	// run's recovery replay.
	RecrashDepth int

	// Workers bounds concurrent runs (0 = GOMAXPROCS, 1 = the serial
	// determinism reference, clamped to MaxWorkers).
	Workers int

	// BreakDedup disables the shard's PM dedup persistence in every run —
	// the negative control proving the exactly-once invariant checker
	// catches a real lost-marks bug.
	BreakDedup bool

	// Txn additionally drives snapshot-isolation transactions during every
	// run: v2 transaction clients run closed-loop RMW increment
	// transactions over a key range disjoint from the plain load, sharing
	// the server (and its faults and crashes) with the v1 retry clients.
	// The run must then also hold the SI contract: every issued
	// transaction accounted for, zero repeatable-read anomalies inside
	// open snapshots, and for every transaction key owning its store slot
	// alone, the durable increment count within
	// [Committed[k], Committed[k]+Unresolved[k]].
	Txn bool

	// Txns is the transaction count per run when Txn is set (0 = 24).
	Txns int64

	// BreakSI disables commit-time conflict validation in every run's
	// server — the negative control proving the SI ledger checker catches
	// lost updates from unvalidated concurrent commits.
	BreakSI bool
}

// Load shape. The generator puts transaction keys at serve.TxnKeyBase, far
// above the plain load's [1, servePlainKeys], and their client IDs above
// the plain workers', so the two traffic classes share the server but
// never a dedup identity — and only collide on store slots by hash
// accident, which the ledger check excludes per key.
const (
	servePlainKeys   = 48
	serveTxnKeySpace = 16
	serveTxnSize     = 2
	serveTxnConns    = 2
)

// ServeStudyModes are the persistence modes the serve campaign sweeps by
// default: the paper's GPM plus the projected-hardware eADR variant, the
// same pair the workload-level crash study uses.
var ServeStudyModes = []workloads.Mode{workloads.GPM, workloads.GPMeADR}

// Serve campaign verdict classes. NotReached means the armed crash plan
// never fired (the run saw fewer mutation applies than ApplyIndex) — the
// invariants still held, but the crash path went unexercised.
const (
	ServeVerdictOK         = "ok"
	ServeVerdictNotReached = "not-reached"
	ServeVerdictFail       = "fail"
)

// ServeRunRecord is one (mode, net schedule, fault model, crash point,
// apply index) execution. The first six fields plus Verdict are the stable
// coordinates Identity hashes; the counters after them are informational
// and may legitimately vary with scheduling (batch composition decides
// which ops ride the crashed epoch).
type ServeRunRecord struct {
	Mode       string `json:"mode"`
	Schedule   string `json:"schedule"`
	Model      string `json:"model"`
	Point      string `json:"point"`
	ApplyIndex int64  `json:"apply_index"`
	FaultSeed  uint64 `json:"fault_seed"`
	Verdict    string `json:"verdict"`
	Err        string `json:"error,omitempty"`

	Ops        int64 `json:"ops"`     // client ops resolved
	GaveUp     int64 `json:"gave_up"` // client ops abandoned after retry caps
	Errors     int64 `json:"errors"`  // ERR replies observed by the client
	Retries    int64 `json:"retries"`
	Reconnects int64 `json:"reconnects"`
	Restarts   int64 `json:"restarts"`   // shard crash-recovery cycles
	PlanFired  bool  `json:"plan_fired"` // the armed crash plan triggered
	NetResets  int64 `json:"net_resets"` // injected connection resets
	NetDups    int64 `json:"net_dups"`   // injected duplicate lines

	// Transaction-load tallies; only set when the campaign drives Txn.
	TxnCommits   int64 `json:"txn_commits,omitempty"`
	TxnAborts    int64 `json:"txn_aborts,omitempty"`
	TxnGaveUp    int64 `json:"txn_gave_up,omitempty"`
	TxnSnapsLost int64 `json:"txn_snapshots_lost,omitempty"`
}

// ServeCampaignReport aggregates one sweep. Identity is the hex FNV-64a of
// every run's stable coordinates and verdict, in descriptor order — equal
// reports from different Workers values hash identically.
type ServeCampaignReport struct {
	Runs     []ServeRunRecord `json:"runs"`
	Failures int              `json:"failures"`
	Identity string           `json:"identity"`
	Shrunk   *ServeShrunk     `json:"shrunk,omitempty"`
}

// ServeShrunk is a minimized, replayable serve-campaign failure: the
// mildest network schedule, fault model, apply index, and op count that
// still violate an invariant under the same seed. Replay is the gpmchaos
// invocation reproducing it.
type ServeShrunk struct {
	Mode       string `json:"mode"`
	Schedule   string `json:"schedule"`
	Model      string `json:"model"`
	Point      string `json:"point"`
	ApplyIndex int64  `json:"apply_index"`
	Ops        int64  `json:"ops"`
	Seed       uint64 `json:"seed"`
	BreakDedup bool   `json:"break_dedup,omitempty"`
	Txn        bool   `json:"txn,omitempty"`
	BreakSI    bool   `json:"break_si,omitempty"`
	Err        string `json:"error"`
	Replay     string `json:"replay"`
}

func (c *ServeCampaign) modes() []workloads.Mode {
	if len(c.Modes) > 0 {
		return c.Modes
	}
	return ServeStudyModes
}

func (c *ServeCampaign) schedules() []faultnet.Schedule {
	if len(c.Schedules) > 0 {
		return c.Schedules
	}
	return faultnet.Schedules()
}

func (c *ServeCampaign) serveModels() []pmem.FaultModel {
	if len(c.Models) > 0 {
		return c.Models
	}
	return pmem.Models()
}

func (c *ServeCampaign) points() []serve.CrashPoint {
	if len(c.Points) > 0 {
		return c.Points
	}
	return serve.CrashPoints()
}

func (c *ServeCampaign) indices() []int64 {
	if len(c.ApplyIndices) > 0 {
		return c.ApplyIndices
	}
	return []int64{1, 2}
}

func (c *ServeCampaign) ops() int64 {
	if c.Ops > 0 {
		return c.Ops
	}
	return 32
}

func (c *ServeCampaign) conns() int {
	if c.Conns > 0 {
		return c.Conns
	}
	return 1
}

func (c *ServeCampaign) txns() int64 {
	if c.Txns > 0 {
		return c.Txns
	}
	return 24
}

// serveDesc is one precomputed campaign run; executing it cannot be
// influenced by any other run.
type serveDesc struct {
	mode  workloads.Mode
	sched faultnet.Schedule
	model pmem.FaultModel
	point serve.CrashPoint
	index int64
	ops   int64
	rec   ServeRunRecord // pre-filled coordinates; outcome set by runOne
}

// descs expands the sweep axes into the flat descriptor list, in a fixed
// nesting order (mode, schedule, model, point, index) so run numbering is
// part of the campaign's contract.
func (c *ServeCampaign) descs() []serveDesc {
	var out []serveDesc
	for _, mode := range c.modes() {
		for _, sched := range c.schedules() {
			for _, model := range c.serveModels() {
				for _, point := range c.points() {
					for _, idx := range c.indices() {
						fs := faultSeed(c.Seed, "gpmserve",
							mode.String()+"|"+sched.Name, model.Name(),
							idx*64+int64(point))
						out = append(out, serveDesc{
							mode: mode, sched: sched, model: model,
							point: point, index: idx, ops: c.ops(),
							rec: ServeRunRecord{
								Mode:       mode.String(),
								Schedule:   sched.Name,
								Model:      model.Name(),
								Point:      point.String(),
								ApplyIndex: idx,
								FaultSeed:  fs,
							},
						})
					}
				}
			}
		}
	}
	return out
}

// Run executes the sweep and, when shrink is true and a run failed,
// reduces the first failure to a minimal replayable tuple.
func (c *ServeCampaign) Run(shrink bool) (*ServeCampaignReport, error) {
	descs := c.descs()
	if len(descs) == 0 {
		return nil, fmt.Errorf("crash: serve campaign has empty sweep axes")
	}
	recs := make([]ServeRunRecord, len(descs))
	fanOut(c.Workers, len(descs), func(i int) { recs[i] = c.runOne(descs[i]) })

	rep := &ServeCampaignReport{Runs: recs}
	h := fnv.New64a()
	for _, r := range recs {
		if r.Verdict == ServeVerdictFail {
			rep.Failures++
		}
		fmt.Fprintf(h, "%s|%s|%s|%s|%d|%d|%s\n",
			r.Mode, r.Schedule, r.Model, r.Point, r.ApplyIndex, r.FaultSeed, r.Verdict)
	}
	rep.Identity = fmt.Sprintf("%016x", h.Sum64())
	if shrink && rep.Failures > 0 {
		for _, r := range rep.Runs {
			if r.Verdict == ServeVerdictFail {
				rep.Shrunk = c.ShrinkServe(r)
				break
			}
		}
	}
	return rep, nil
}

// runOne executes one descriptor: boot, arm, serve over a faulted pipe,
// drive with the retry client, drain, and judge the invariants.
func (c *ServeCampaign) runOne(d serveDesc) ServeRunRecord {
	rec := d.rec
	fail := func(format string, args ...any) ServeRunRecord {
		rec.Verdict = ServeVerdictFail
		rec.Err = fmt.Sprintf(format, args...)
		return rec
	}
	audit := obs.NewAuditLog(0)
	srv, err := serve.NewServer(serve.Config{
		Mode: d.mode, Shards: 1, Sets: 64, MaxBatch: 8,
		DedupWindow: 64, Seed: rec.FaultSeed, BreakSI: c.BreakSI,
		Audit: audit,
	})
	if err != nil {
		return fail("boot: %v", err)
	}
	sh := srv.Shards()[0]
	if c.BreakDedup {
		sh.DisableDedupPersist()
	}
	sh.SetCrashPlan(&serve.ShardCrashPlan{
		ApplyIndex:   d.index,
		Point:        d.point,
		Model:        d.model,
		FaultSeed:    rec.FaultSeed,
		RecrashDepth: c.RecrashDepth,
	})

	pl := faultnet.NewPipeListener()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeOn(pl) }()

	// Faults ride the client side of the pipe: request lines get torn,
	// reset, and duplicated on their way in; replies get stalled on their
	// way back. That is the direction exactly-once retries must survive.
	dialer := faultnet.NewDialer(pl.Dial, d.sched, rec.FaultSeed^0xfa1c0de)
	// Txn runs add transaction workers to the same load: v2 commits and v1
	// writes share epochs, faults, and the crash plan.
	var txns int64
	if c.Txn {
		txns = c.txns()
	}
	res, loadErr := serve.RunLoad(serve.LoadConfig{
		Dial:  dialer.Dial,
		Conns: c.conns(), Ops: d.ops, Window: 4,
		GetFraction: 0.25, DelFraction: 0.125, KeySpace: servePlainKeys,
		TxnConns: serveTxnConns, Txns: txns, TxnSize: serveTxnSize,
		TxnKeySpace: serveTxnKeySpace, MaxAttempts: 16,
		Seed:    rec.FaultSeed ^ 0x1c3a5e7d9bfd1357,
		Timeout: 10 * time.Second,
		Retry:   true, MaxRetries: 12, RetryBackoff: 200 * time.Microsecond,
	})
	srv.Shutdown(5 * time.Second)
	<-serveDone

	if res != nil {
		rec.Ops, rec.GaveUp, rec.Errors = res.Ops, res.GaveUp, res.Errors
		rec.Retries, rec.Reconnects = res.Retries, res.Reconnects
	}
	if res != nil && res.Txn != nil {
		rec.TxnCommits, rec.TxnAborts = res.Txn.Txns, res.Txn.Aborts
		rec.TxnGaveUp, rec.TxnSnapsLost = res.Txn.GaveUp, res.Txn.SnapshotsLost
	}
	rec.Restarts, rec.PlanFired = sh.Restarts(), sh.PlanFired()
	st := dialer.Stats()
	rec.NetResets, rec.NetDups = st.Resets(), st.Dups()

	var probs []string
	if loadErr != nil {
		probs = append(probs, fmt.Sprintf("client transport gave out: %v", loadErr))
	}
	if res != nil && res.Ops+res.GaveUp != d.ops {
		probs = append(probs, fmt.Sprintf(
			"accounting: %d resolved + %d given up != %d issued", res.Ops, res.GaveUp, d.ops))
	}
	if v := sh.TallyViolations(); len(v) > 0 {
		probs = append(probs, fmt.Sprintf("exactly-once violated: IDs %v applied more than once", v))
	}
	if v := srv.AckViolations(); len(v) > 0 {
		probs = append(probs, fmt.Sprintf("lost update: IDs %v acked from high-water marks without exactly one apply", v))
	}
	if err := sh.Verify(); err != nil {
		probs = append(probs, fmt.Sprintf("store verify: %v", err))
	}
	var injected []crashRound
	if rec.PlanFired {
		injected = []crashRound{{shard: sh.ID(), point: d.point}}
	}
	if err := verifyAuditTrail(audit.Events(), injected); err != nil {
		probs = append(probs, fmt.Sprintf("audit trail: %v", err))
	}
	clean := d.sched.Name == "clean"
	if clean && res != nil && (res.Errors > 0 || res.GaveUp > 0) {
		probs = append(probs, fmt.Sprintf(
			"clean network: %d ERR replies, %d ops given up", res.Errors, res.GaveUp))
	}
	if c.Txn && res != nil {
		probs = append(probs, c.txnProbs(res.Txn, loadErr, sh, clean)...)
	}
	if len(probs) > 0 {
		return fail("%s", strings.Join(probs, "; "))
	}
	if !rec.PlanFired {
		rec.Verdict = ServeVerdictNotReached
	} else {
		rec.Verdict = ServeVerdictOK
	}
	return rec
}

// txnProbs judges the snapshot-isolation contract after a Txn run:
// transaction accounting, repeatable reads, and the per-key SI ledger.
// The ledger compares each transaction key's durable increment count
// (every committed transaction read-modify-wrote exactly +1) against the
// client-side tally: at least every acknowledged commit, at most that
// plus the commits whose outcome stayed unknown. Keys sharing a store
// slot with any other key — plain or transactional — are excluded, since
// a colliding SET legally evicts the incumbent's value; a ledger left
// with no key to check is itself a failure. On a clean network the txn
// clients must also see no ERR verdict and leave no commit unresolved.
// The transaction count is checked only when no client gave out (loadErr
// nil), since a dead worker leaves its share unissued.
func (c *ServeCampaign) txnProbs(tres *serve.TxnResult, loadErr error, sh *serve.Shard, clean bool) []string {
	var probs []string
	if clean && (tres.Errors > 0 || tres.GaveUp > 0) {
		probs = append(probs, fmt.Sprintf(
			"clean network: txn clients saw %d errors, %d commits unresolved", tres.Errors, tres.GaveUp))
	}
	if loadErr == nil {
		if got := tres.Txns + tres.AbortedForGood + tres.GaveUp; got != c.txns() {
			probs = append(probs, fmt.Sprintf(
				"txn accounting: %d committed + %d dropped + %d unknown != %d issued",
				tres.Txns, tres.AbortedForGood, tres.GaveUp, c.txns()))
		}
	}
	if tres.ReadAnomalies > 0 {
		probs = append(probs, fmt.Sprintf(
			"repeatable read violated %d times inside open snapshots", tres.ReadAnomalies))
	}
	owners := make(map[int]int)
	for k := uint64(1); k <= servePlainKeys; k++ {
		owners[sh.SlotOf(k)]++
	}
	for k := uint64(0); k < serveTxnKeySpace; k++ {
		owners[sh.SlotOf(serve.TxnKeyBase+k)]++
	}
	checked := 0
	for k := uint64(0); k < serveTxnKeySpace; k++ {
		key := serve.TxnKeyBase + k
		if owners[sh.SlotOf(key)] != 1 {
			continue
		}
		checked++
		lo := tres.Committed[key]
		hi := lo + tres.Unresolved[key]
		v, _ := sh.MVCCLatest(key) // absent reads as 0
		if int64(v) < lo || int64(v) > hi {
			probs = append(probs, fmt.Sprintf(
				"si ledger: key %d durable count %d outside [%d, %d] (%d commits acked, %d unknown)",
				key, v, lo, hi, tres.Committed[key], tres.Unresolved[key]))
		}
	}
	if checked == 0 {
		probs = append(probs, "si ledger checked 0 slot-exclusive keys — the invariant was vacuous")
	}
	return probs
}

// crashRound is one crash a run injected, for audit-trail cross-checking.
type crashRound struct {
	shard int
	point serve.CrashPoint
}

// verifyAuditTrail cross-checks the recovery audit trail against the
// crashes actually injected: every crash event pairs with a restart whose
// replay evidence matches what that crash point must have left behind,
// given the store slots the crash event says its batch put at risk —
//
//	before-kernel  tx flag set, all geometries replayed, 0 slots undone
//	               (the log was still empty);
//	mid-kernel     tx flag set, replay undid at most the at-risk slots;
//	before-commit  tx flag set, replay undid EXACTLY the at-risk slots
//	               (fully logged, never committed) — at most, when nested
//	               re-crashes sit between crash and restart, since their
//	               partial replays already consumed entries;
//	before-reply   tx flag clear (the batch committed), nothing replayed.
//
// Re-crash events may only sit between a crash and its restart. The trail
// must close with at least one verify event, and every verify must be "ok".
func verifyAuditTrail(events []obs.AuditEvent, expected []crashRound) error {
	var crashes, recrashes, restarts, verifies []obs.AuditEvent
	for _, ev := range events {
		switch {
		case ev.Type == obs.AuditCrash && ev.Point == serve.RecoveryCrashPoint:
			recrashes = append(recrashes, ev)
		case ev.Type == obs.AuditCrash:
			crashes = append(crashes, ev)
		case ev.Type == obs.AuditRestart:
			restarts = append(restarts, ev)
		case ev.Type == obs.AuditVerify:
			verifies = append(verifies, ev)
		}
	}
	if len(crashes) != len(expected) || len(restarts) != len(expected) {
		return fmt.Errorf("%d crash / %d restart events for %d injected crashes",
			len(crashes), len(restarts), len(expected))
	}
	placed := 0
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
		nested := 0
		for _, rc := range recrashes {
			if rc.Shard == want.shard && rc.Seq > c.Seq && rc.Seq < r.Seq {
				nested++
			}
		}
		placed += nested
		wantTx := want.point != serve.CrashBeforeReply
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
		atRisk := int64(c.AtRisk)
		switch want.point {
		case serve.CrashBeforeKernel:
			if r.SlotsRolledBack != 0 {
				return fmt.Errorf("restart %d after %s undid %d slots, want 0 (kernel never ran)",
					i, want.point, r.SlotsRolledBack)
			}
		case serve.CrashMidKernel:
			if r.SlotsRolledBack > atRisk {
				return fmt.Errorf("restart %d after %s undid %d slots, batch only put %d at risk",
					i, want.point, r.SlotsRolledBack, atRisk)
			}
		case serve.CrashBeforeCommit:
			if r.SlotsRolledBack > atRisk || (nested == 0 && r.SlotsRolledBack != atRisk) {
				return fmt.Errorf("restart %d after %s undid %d slots, want exactly %d (fully logged, uncommitted; %d nested re-crashes)",
					i, want.point, r.SlotsRolledBack, atRisk, nested)
			}
		}
	}
	if placed != len(recrashes) {
		return fmt.Errorf("%d of %d re-crash events sit outside any crash/restart window",
			len(recrashes)-placed, len(recrashes))
	}
	if len(verifies) == 0 {
		return fmt.Errorf("no verify event")
	}
	for _, v := range verifies {
		if v.Outcome != "ok" {
			return fmt.Errorf("shard %d verify outcome %q: %s", v.Shard, v.Outcome, v.Err)
		}
	}
	return nil
}

// ShrinkServe minimizes a failing serve run along four axes in severity
// order — network schedule to clean, PM fault model to clean, apply index
// down, op count down — re-executing every candidate and keeping only
// reductions that still fail. The result is a replayable tuple; failure is
// not guaranteed monotone, so it is best-effort minimal but always
// re-confirmed.
func (c *ServeCampaign) ShrinkServe(rec ServeRunRecord) *ServeShrunk {
	mode, err := serve.ModeByName(rec.Mode)
	if err != nil {
		return nil
	}
	sched, err := faultnet.ScheduleByName(rec.Schedule)
	if err != nil {
		return nil
	}
	model, err := pmem.ModelByName(rec.Model)
	if err != nil {
		return nil
	}
	point, err := ServePointByName(rec.Point)
	if err != nil {
		return nil
	}
	// reseed re-derives the candidate's fault seed from its (possibly
	// reduced) coordinates, exactly as descs and ReplayServe do — so every
	// reduction we confirm is the run the replay command will execute.
	reseed := func(d serveDesc) serveDesc {
		d.rec.FaultSeed = faultSeed(c.Seed, "gpmserve",
			d.mode.String()+"|"+d.sched.Name, d.model.Name(),
			d.index*64+int64(d.point))
		return d
	}
	cur := reseed(serveDesc{
		mode: mode, sched: sched, model: model, point: point,
		index: rec.ApplyIndex, ops: c.ops(), rec: rec,
	})
	cur.rec.Err, cur.rec.Verdict = "", ""
	fails := func(d serveDesc) (bool, string) {
		r := c.runOne(d)
		return r.Verdict == ServeVerdictFail, r.Err
	}
	ok, lastErr := fails(cur)
	if !ok {
		return nil // not reproducible in isolation; nothing to shrink
	}

	if cur.sched.Name != "clean" {
		cand := cur
		cand.sched, _ = faultnet.ScheduleByName("clean")
		cand.rec.Schedule = "clean"
		cand = reseed(cand)
		if ok, e := fails(cand); ok {
			cur, lastErr = cand, e
		}
	}
	if cur.model.Name() != "clean" {
		cand := cur
		cand.model = pmem.Clean{}
		cand.rec.Model = "clean"
		cand = reseed(cand)
		if ok, e := fails(cand); ok {
			cur, lastErr = cand, e
		}
	}
	// Smallest apply index that still fails (binary search toward 1). The
	// search probes ever-smaller failing indices, so keeping each confirmed
	// failure leaves cur at the smallest one found.
	base := cur
	smallestFailing(1, base.index, func(idx int64) bool {
		cand := base
		cand.index, cand.rec.ApplyIndex = idx, idx
		cand = reseed(cand)
		ok, e := fails(cand)
		if ok {
			cur, lastErr = cand, e
		}
		return ok
	})
	// Halve the op count while the failure survives.
	for cur.ops > 8 {
		cand := cur
		cand.ops = cur.ops / 2
		ok, e := fails(cand)
		if !ok {
			break
		}
		cur, lastErr = cand, e
	}

	s := &ServeShrunk{
		Mode:       cur.rec.Mode,
		Schedule:   cur.rec.Schedule,
		Model:      cur.rec.Model,
		Point:      cur.rec.Point,
		ApplyIndex: cur.index,
		Ops:        cur.ops,
		Seed:       c.Seed,
		BreakDedup: c.BreakDedup,
		Txn:        c.Txn,
		BreakSI:    c.BreakSI,
		Err:        lastErr,
	}
	s.Replay = fmt.Sprintf(
		"gpmchaos -serve -mode %s -schedule %s -model %s -point %s -apply-index %d -ops %d -seed %d",
		s.Mode, s.Schedule, s.Model, s.Point, s.ApplyIndex, s.Ops, s.Seed)
	if s.BreakDedup {
		s.Replay += " -break-dedup"
	}
	if s.Txn {
		s.Replay += " -txn"
	}
	if s.BreakSI {
		s.Replay += " -break-si"
	}
	return s
}

// ReplayServe re-executes a shrunk tuple as a single campaign run and
// returns its record — the round trip gpmchaos uses to confirm a shrunk
// failure still reproduces.
func (c *ServeCampaign) ReplayServe(s *ServeShrunk) (ServeRunRecord, error) {
	mode, err := serve.ModeByName(s.Mode)
	if err != nil {
		return ServeRunRecord{}, err
	}
	sched, err := faultnet.ScheduleByName(s.Schedule)
	if err != nil {
		return ServeRunRecord{}, err
	}
	model, err := pmem.ModelByName(s.Model)
	if err != nil {
		return ServeRunRecord{}, err
	}
	point, err := ServePointByName(s.Point)
	if err != nil {
		return ServeRunRecord{}, err
	}
	fs := faultSeed(c.Seed, "gpmserve", mode.String()+"|"+sched.Name,
		model.Name(), s.ApplyIndex*64+int64(point))
	// The shrunk tuple carries its break switches and txn flag so a
	// JSON-driven replay reproduces them even on a fresh campaign value.
	cc := *c
	cc.BreakDedup = cc.BreakDedup || s.BreakDedup
	cc.Txn = cc.Txn || s.Txn
	cc.BreakSI = cc.BreakSI || s.BreakSI
	return cc.runOne(serveDesc{
		mode: mode, sched: sched, model: model, point: point,
		index: s.ApplyIndex, ops: s.Ops,
		rec: ServeRunRecord{
			Mode: s.Mode, Schedule: s.Schedule, Model: s.Model,
			Point: s.Point, ApplyIndex: s.ApplyIndex, FaultSeed: fs,
		},
	}), nil
}

// ServePointByName resolves a serve.CrashPoint from its String form.
func ServePointByName(name string) (serve.CrashPoint, error) {
	var valid []string
	for _, p := range serve.CrashPoints() {
		if p.String() == name {
			return p, nil
		}
		valid = append(valid, p.String())
	}
	return 0, fmt.Errorf("crash: unknown crash point %q (valid: %s)", name, strings.Join(valid, ", "))
}
