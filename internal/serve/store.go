// Package serve is gpmserve's batched network front-end over the gpKVS
// store: a TCP server that accumulates client GET/SET/DEL requests into
// admission-controlled batches and runs each batch as a transaction on the
// same kvstore.Store the gpKVS workload drives (SET/DELETE with HCL undo
// logging under GPM, CAP-fs/CAP-mm post-kernel persistence as baselines).
// Replies are sent only after the batch's persistence path completes, so a
// positive response implies durability of the mutation it acknowledges.
//
// The keyspace partitions across -shards independent simulated nodes
// (shard = key mod shards), each owned by one worker goroutine; batches on
// different shards execute concurrently while each shard stays serial, so
// the simulated results per shard are deterministic given the batch
// sequence.
package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/gpm-sim/gpm/internal/fsim"
	"github.com/gpm-sim/gpm/internal/kvstore"
	"github.com/gpm-sim/gpm/internal/obs"
	"github.com/gpm-sim/gpm/internal/pmem"
	"github.com/gpm-sim/gpm/internal/sim"
	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// Batch is one admitted transaction of client operations. The batcher
// guarantees at most one kernel mutation (SET or DEL) per store slot per
// batch — the same precondition the gpKVS workload generator enforces — so
// kernel thread scheduling cannot change the result: later writes to a slot
// squash into its staged image, and every logical mutation keeps its own
// row in VerKeys. GetKeys are the kernel reads. A GET admitted behind a
// pending write of its slot never becomes one: it reads the staged image at
// admission. A write admitted behind a staged kernel read of its slot goes
// to a later batch, so the read cannot observe it.
type Batch struct {
	SetKeys, SetVals []uint64
	DelKeys          []uint64
	GetKeys          []uint64

	// DedupCID/DedupSeq are the batch's dedup advances: for every client
	// with identified requests riding this batch, the highest sequence
	// number aboard. A mutation-bearing batch commits them with its store
	// transaction, so a client's committed high-water mark survives exactly
	// the crashes its acked mutations survive.
	DedupCID, DedupSeq []uint64

	// VerKeys/VerVals/VerDel/VerTS/VerIDs carry EVERY logical mutation the
	// epoch squashed onto its kernel slots, each with its MVCC commit
	// timestamp: the slot-row commit and the per-ID apply tally. When
	// VerKeys is empty the batch is a legacy direct-Apply batch and
	// SetKeys/DelKeys are both the kernel ops and the logical mutations;
	// only the store and golden tests and the bench's apply probe send them.
	// VerIDs carries a request ID only on the first write of a multi-write
	// transaction commit (one tally per commit unit).
	VerKeys, VerVals []uint64
	VerDel           []bool
	VerTS            []uint64
	VerIDs           []ReqID

	// OracleHWM, when nonzero, is the timestamp-oracle reservation to
	// persist with this batch's transaction (monotone, never logged).
	OracleHWM uint64

	// LogicalOps, when nonzero, is the client-operation count this batch
	// services. Write-squashing folds many client writes onto few kernel
	// slots and precomputed snapshot reads ride epochs without a kernel op
	// at all, so the kernel op count (Ops) undercounts service; the shard's
	// Ops() tally uses this when set.
	LogicalOps int
}

// Mutations is the number of slot-writing operations in the batch.
func (b *Batch) Mutations() int { return len(b.SetKeys) + len(b.DelKeys) }

// Ops is the total operation count.
func (b *Batch) Ops() int { return b.Mutations() + len(b.GetKeys) }

// BatchResult reports one applied batch.
type BatchResult struct {
	// GetVals holds one entry per GetKeys element: the value, or 0 when the
	// key was absent.
	GetVals []uint64
	// SimTime is the simulated time the batch consumed on the shard's node
	// (stage + kernels + host serve + persistence/commit).
	SimTime sim.Duration
	// Ops echoes the batch's operation count.
	Ops int
	// WallStage/WallKernel/WallPersist are host wall-clock durations of the
	// corresponding Apply sections. The simulator burns real CPU running
	// kernels, so these let per-request traces place stage boundaries on the
	// wall timeline without touching the simulated clock.
	WallStage, WallKernel, WallPersist time.Duration
}

// Shard is one keyspace partition: a private simulated node holding a
// gpKVS store (kvstore.Store: Sets × 8 ways × 16 B on PM, HBM working
// mirror), applying batches as its transactions under the configured mode.
// A Shard is not safe for concurrent use; the server drives each shard from
// exactly one worker goroutine.
type Shard struct {
	id       int
	mode     workloads.Mode
	env      *workloads.Env
	maxBatch int

	store     *kvstore.Store
	dedupFile *fsim.File // PM dedup table (per-client committed marks) and its redo record
	oraFile   *fsim.File // MVCC timestamp-oracle reservation (monotone, unlogged)

	// Launch geometries, one per power-of-two block count up to the full
	// grid (last), each with its own HCL log under logging modes. The HCL
	// layout mirrors the kernel grid (Insert requires an exact geometry
	// match), so a fixed MaxBatch-sized log would force every mutate kernel
	// to launch the full grid no matter how small the batch. Instead a
	// mutate launch uses the smallest grid covering its fill, and recovery
	// replays every log (empty partitions cost nothing).
	geoms []kvstore.TxLog

	// dedupShadow is the host-side mirror of the PM dedup table (2 u64 per
	// table slot: cid, seq); authoritative between crashes, reloaded from PM
	// durable state on Restart. tally counts commits per request ID — the
	// duplicate-apply detector chaos campaigns assert on.
	dedupShadow    []uint64
	tally          map[ReqID]int
	noDedupPersist bool // negative control: dedup state never reaches PM

	// oraShadow mirrors the durable oracle reservation; mvcc is the
	// committed image: it reflects exactly the batches that were
	// acknowledged, survives a simulated crash (it models what clients were
	// promised), and is what Verify compares the durable store against
	// after recovery (its own lock — see mvccState).
	oraShadow uint64
	mvcc      *mvccState

	// plan, when set, injects a power failure inside a future Apply call;
	// fired keeps the triggered plan so the recovery path can honor its
	// fault model and re-crash depth.
	plan       *ShardCrashPlan
	fired      *ShardCrashPlan
	applyCount int64 // mutation-bearing Apply calls seen (plan trigger index)

	ops      int64
	down     bool         // crashed and not yet restarted
	restarts atomic.Int64 // completed crash-recovery cycles

	// audit, when set, receives crash/restart/verify events — the recovery
	// audit trail. Nil disables (obs.AuditLog methods are nil-safe).
	audit *obs.AuditLog
}

// ShardConfig sizes one shard.
type ShardConfig struct {
	Mode     workloads.Mode
	Sets     int // hash sets (store = Sets × 8 ways × 16 B)
	MaxBatch int // max operations per admitted batch
	Seed     uint64
}

// capThreads is every shard's CPU thread count for CAP persist phases and
// host serving.
const capThreads = 16

// SupportedModes lists the persistence modes gpmserve can run. GPUfs
// deadlocks on fine-grained KVS updates and CPU-only has no GPU batches to
// dispatch, so both are excluded (as in the gpKVS workload).
func SupportedModes() []workloads.Mode {
	return []workloads.Mode{
		workloads.GPM, workloads.GPMeADR, workloads.GPMNDP,
		workloads.CAPfs, workloads.CAPmm, workloads.CAPeADR,
	}
}

// ModeByName resolves a servable mode name (e.g. "GPM", "CAP-fs"),
// rejecting modes the server cannot run.
func ModeByName(name string) (workloads.Mode, error) {
	if m, err := workloads.ModeByName(name); err == nil && ModeSupported(m) {
		return m, nil
	}
	var valid []string
	for _, m := range SupportedModes() {
		valid = append(valid, m.String())
	}
	return 0, fmt.Errorf("serve: unsupported mode %q (valid: %s)", name, strings.Join(valid, ", "))
}

// ModeSupported reports whether mode can serve.
func ModeSupported(mode workloads.Mode) bool {
	for _, m := range SupportedModes() {
		if m == mode {
			return true
		}
	}
	return false
}

// NewShard builds one shard on a fresh simulated node.
func NewShard(id int, cfg ShardConfig) (*Shard, error) {
	if !ModeSupported(cfg.Mode) {
		return nil, fmt.Errorf("serve: mode %s cannot serve", cfg.Mode)
	}
	if cfg.Sets < 1 {
		return nil, fmt.Errorf("serve: sets must be >= 1, got %d", cfg.Sets)
	}
	if cfg.MaxBatch < 1 {
		return nil, fmt.Errorf("serve: max batch must be >= 1, got %d", cfg.MaxBatch)
	}
	s := &Shard{id: id, mode: cfg.Mode, maxBatch: cfg.MaxBatch}
	blocks := kvstore.GridFor(cfg.MaxBatch)
	for g := 1; g < blocks; g *= 2 {
		s.geoms = append(s.geoms, kvstore.TxLog{Grid: g})
	}
	s.geoms = append(s.geoms, kvstore.TxLog{Grid: blocks})
	store := kvstore.StoreBytes(cfg.Sets)
	var logSize int64
	for _, g := range s.geoms {
		logSize += kvstore.LogSize(g.Grid)
	}
	staging := int64(cfg.MaxBatch) * 8 * 5
	wcfg := workloads.Config{
		Seed:       cfg.Seed,
		CAPThreads: capThreads,
		HBMSize:    store + staging + 1<<20,
		DRAMSize:   store + 1<<20, // CAP bounce buffers
		PMSize:     store + logSize + dedupFileBytes(cfg.MaxBatch) + 64 + 1<<20,
	}
	s.env = workloads.NewEnv(cfg.Mode, wcfg)

	var err error
	if s.store, err = kvstore.NewStore(s.env, cfg.Sets, cfg.MaxBatch); err != nil {
		return nil, err
	}
	if s.dedupFile, err = s.env.Ctx.FS.Create("/pm/kvs.dedup", dedupFileBytes(cfg.MaxBatch), 0); err != nil {
		return nil, err
	}
	if s.oraFile, err = s.env.Ctx.FS.Create("/pm/kvs.oracle", 64, 0); err != nil {
		return nil, err
	}
	s.dedupShadow = make([]uint64, dedupSlots*2)
	s.tally = make(map[ReqID]int)
	s.mvcc = newMVCC(s.store.Slots())

	// The empty dedup state is durable from the start, like the store.
	sp := s.env.Ctx.Space
	sp.PersistRange(s.dedupFile.Mmap(), int(dedupFileBytes(cfg.MaxBatch)))
	sp.PersistRange(s.oraFile.Mmap(), 64)

	if kvstore.Logged(s.mode) {
		for i := range s.geoms {
			g := &s.geoms[i]
			if g.Log, err = s.store.CreateLog(logPath(g.Grid), g.Grid); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// logPath names the HCL log file for a g-block grid.
func logPath(g int) string { return fmt.Sprintf("/pm/kvs.log.g%d", g) }

// launchFor returns the smallest launch geometry whose grid covers nOps
// thread groups, with its matching HCL log.
func (s *Shard) launchFor(nOps int) kvstore.TxLog {
	need := kvstore.GridFor(nOps)
	for _, g := range s.geoms {
		if g.Grid >= need {
			return g
		}
	}
	return s.geoms[len(s.geoms)-1]
}

// commitLogs returns the distinct launches b's mutate kernels used — the
// logs its commit must truncate (none when the mode does not log).
func (s *Shard) commitLogs(b *Batch) []kvstore.TxLog {
	if !kvstore.Logged(s.mode) {
		return nil
	}
	var logs []kvstore.TxLog
	for _, n := range []int{len(b.SetKeys), len(b.DelKeys)} {
		if l := s.launchFor(n); n > 0 && (len(logs) == 0 || logs[0].Grid != l.Grid) {
			logs = append(logs, l)
		}
	}
	return logs
}

// ID returns the shard index.
func (s *Shard) ID() int { return s.id }

// SetAudit attaches the recovery audit trail; crash injection, Restart and
// Verify record structured events to it. Nil detaches.
func (s *Shard) SetAudit(l *obs.AuditLog) { s.audit = l }

// Mode returns the shard's persistence mode.
func (s *Shard) Mode() workloads.Mode { return s.mode }

// Ops returns the total operations applied (committed batches only).
func (s *Shard) Ops() int64 { return s.ops }

// Env exposes the shard's execution environment (telemetry attachment,
// timeline inspection).
func (s *Shard) Env() *workloads.Env { return s.env }

// SlotOf returns the store slot index a key maps to; the batcher uses it
// for per-epoch conflict tracking and hot reads from the committed image.
func (s *Shard) SlotOf(key uint64) int { return s.store.SlotOf(key) }

// checkBatch rejects batches that violate the kernel preconditions: size
// limits and the one-mutation-per-slot rule. Violations indicate a batcher
// bug; refusing beats a silently scheduling-dependent store image.
func (s *Shard) checkBatch(b *Batch) error {
	if len(b.SetKeys) != len(b.SetVals) {
		return fmt.Errorf("serve: shard %d: %d SET keys with %d values", s.id, len(b.SetKeys), len(b.SetVals))
	}
	if len(b.DedupCID) != len(b.DedupSeq) || len(b.DedupCID) > mutCap(s.maxBatch) {
		return fmt.Errorf("serve: shard %d: malformed dedup advances (%d/%d)",
			s.id, len(b.DedupCID), len(b.DedupSeq))
	}
	if len(b.VerKeys) != len(b.VerVals) || len(b.VerKeys) != len(b.VerDel) ||
		len(b.VerKeys) != len(b.VerTS) ||
		(b.VerIDs != nil && len(b.VerIDs) != len(b.VerKeys)) ||
		len(b.VerKeys) > mutCap(s.maxBatch) {
		return fmt.Errorf("serve: shard %d: malformed version arrays (keys=%d vals=%d del=%d ts=%d ids=%d cap=%d)",
			s.id, len(b.VerKeys), len(b.VerVals), len(b.VerDel), len(b.VerTS), len(b.VerIDs), mutCap(s.maxBatch))
	}
	if b.Mutations() > s.maxBatch || len(b.GetKeys) > s.maxBatch {
		return fmt.Errorf("serve: shard %d: batch exceeds max %d (sets=%d dels=%d gets=%d)",
			s.id, s.maxBatch, len(b.SetKeys), len(b.DelKeys), len(b.GetKeys))
	}
	seen := make(map[int]bool, b.Mutations())
	for _, keys := range [][]uint64{b.SetKeys, b.DelKeys} {
		for _, key := range keys {
			slot := s.SlotOf(key)
			if seen[slot] {
				return fmt.Errorf("serve: shard %d: two mutations on slot %d in one batch", s.id, slot)
			}
			seen[slot] = true
		}
	}
	return nil
}

// commitImage folds an acknowledged batch into the committed image and
// tallies each identified mutation in VerIDs — the full squashed logical
// history, where the kernel arrays only carry per-slot winners. A correctly
// deduplicating server never lets any request ID's tally pass 1.
func (s *Shard) commitImage(b *Batch) {
	for _, id := range b.VerIDs {
		if !id.Zero() {
			s.tally[id]++
		}
	}
	s.mvcc.commit(b, s.SlotOf)
}

// slotWrites counts the store slots b's mutate kernels write — every SET,
// and every DEL whose key is present — which is the number of undo entries
// a fully logged b leaves behind. Valid only before b commits: it reads the
// committed image, which matches the mirror the kernels probe.
func (s *Shard) slotWrites(b *Batch) int {
	n := len(b.SetKeys)
	for _, key := range b.DelKeys {
		if k, _ := s.mvcc.slotImage(s.SlotOf(key)); k == key {
			n++
		}
	}
	return n
}

// Apply executes one batch as a transaction and returns the GET results.
// On return the batch's mutations are durable (the response path includes
// the mode's persistence step), so the caller may acknowledge clients. If
// an armed ShardCrashPlan triggers on this call, Apply power-fails the
// shard at the planned pipeline point and returns *ShardDownError.
func (s *Shard) Apply(b *Batch) (*BatchResult, error) {
	if s.down {
		return nil, fmt.Errorf("serve: shard %d is down (crashed; Restart first)", s.id)
	}
	if err := s.checkBatch(b); err != nil {
		return nil, err
	}
	var cp *ShardCrashPlan
	if s.plan != nil && s.mode.UsesGPM() && b.Mutations() > 0 {
		s.applyCount++
		if s.applyCount >= s.plan.ApplyIndex {
			cp, s.plan = s.plan, nil
			s.fired = cp
		}
	}
	return s.apply(b, cp)
}

// apply is the batch transaction body, with the crash plan's power-fail
// checkpoints woven between pipeline stages (cp nil = no injection). It is
// the only code path that power-fails a shard inside a batch.
func (s *Shard) apply(b *Batch, cp *ShardCrashPlan) (*BatchResult, error) {
	n := b.Ops()
	if n == 0 {
		// A batch with no kernel ops can still service clients: an epoch
		// whose riders are all precomputed snapshot reads. Tally them.
		s.ops += int64(b.LogicalOps)
		return &BatchResult{}, nil
	}
	var atRisk int
	if cp != nil {
		atRisk = s.slotWrites(b)
	}
	ctx := s.env.Ctx
	start := ctx.Timeline.Total()
	wall0 := time.Now()
	spStage := ctx.SpanStart()
	s.store.Stage(b.SetKeys, b.SetVals, b.DelKeys, b.GetKeys)
	ctx.SpanEnd(telemetry.TrackPCIe, "serve-stage", "serve", spStage)
	logging := kvstore.Logged(s.mode) && b.Mutations() > 0
	adv := s.dedupAdvances(b)
	wall1 := time.Now()

	spKernel := ctx.SpanStart()
	if logging {
		s.store.SetTxFlag(true)
		if len(adv) > 0 {
			s.dedupRecord(adv)
		}
	}
	if cp != nil && cp.Point == CrashBeforeKernel {
		return nil, s.crashNow(cp, atRisk, "staged and armed, before mutate kernel")
	}
	s.env.PersistKernelBegin()
	if cp != nil && cp.Point == CrashMidKernel {
		after := cp.AbortAfterOps
		ctx.Dev.SetAbortCheck(func(op int64) bool { return op >= after })
	}
	// Each mutate launch uses the smallest grid covering its fill, and the
	// undo log of exactly that geometry: a quarter-full epoch does not pay
	// for a MaxBatch-sized launch.
	errSet := s.store.Mutate(false, len(b.SetKeys), s.launchFor(len(b.SetKeys)))
	errDel := s.store.Mutate(true, len(b.DelKeys), s.launchFor(len(b.DelKeys)))
	if cp != nil && cp.Point == CrashMidKernel {
		ctx.Dev.SetAbortCheck(nil)
		s.env.PersistKernelEnd()
		return nil, s.crashNow(cp, atRisk, fmt.Sprintf("kernel aborted after %d device ops", cp.AbortAfterOps))
	}
	if errSet != nil {
		return nil, errSet
	}
	if errDel != nil {
		return nil, errDel
	}
	s.store.Get(len(b.GetKeys))
	s.env.PersistKernelEnd()
	ctx.SpanEnd(telemetry.TrackKernel, "serve-kernel", "serve", spKernel)
	s.oracleWrite(b)
	if cp != nil && cp.Point == CrashBeforeCommit {
		return nil, s.crashNow(cp, atRisk, "mutations persisted, before the flag clear")
	}
	wall2 := time.Now()

	spCommit := ctx.SpanStart()
	s.store.HostServe(n)
	if err := s.store.Commit(s.commitLogs(b), b.SetKeys, b.DelKeys); err != nil {
		return nil, err
	}
	s.dedupTableWrite(adv)
	ctx.SpanEnd(telemetry.TrackPersist, "serve-persist", "serve", spCommit)
	wall3 := time.Now()

	out := s.store.GetResults(len(b.GetKeys))
	s.commitImage(b)
	if b.LogicalOps > 0 {
		s.ops += int64(b.LogicalOps)
	} else {
		s.ops += int64(n)
	}
	if cp != nil && cp.Point == CrashBeforeReply {
		return nil, s.crashNow(cp, atRisk, "batch committed durably, acks lost")
	}
	return &BatchResult{
		GetVals: out, SimTime: s.env.Ctx.Timeline.Total() - start, Ops: n,
		WallStage:   wall1.Sub(wall0),
		WallKernel:  wall2.Sub(wall1),
		WallPersist: wall3.Sub(wall2),
	}, nil
}

// CrashPoint names a power-fail instant relative to the pipeline stages a
// batch moves through: form -> stage/kernel -> persist/commit -> reply.
// The durability contract is one-directional — an acknowledged mutation is
// always durable; a crash after commit but before the reply leaves a
// durable batch whose acks were simply lost (clients retry).
type CrashPoint int

const (
	// CrashBeforeKernel dies after the batch is staged on the device and
	// the transaction is armed, before the mutate kernel runs: recovery
	// finds the tx flag set with an empty log and just closes it.
	CrashBeforeKernel CrashPoint = iota
	// CrashMidKernel dies inside the mutate kernel (§6.2 worst case):
	// recovery must undo the partial batch from the HCL log.
	CrashMidKernel
	// CrashBeforeCommit dies after the mutate kernel fully ran and
	// persisted, before the flag clear commits the transaction: recovery
	// must undo the complete (but uncommitted) batch.
	CrashBeforeCommit
	// CrashBeforeReply dies after the batch committed durably but before
	// any reply was released: the batch survives recovery and the shard
	// counts it committed; only the acknowledgements are lost.
	CrashBeforeReply
)

// CrashPoints lists every between-stage crash point, in pipeline order.
func CrashPoints() []CrashPoint {
	return []CrashPoint{CrashBeforeKernel, CrashMidKernel, CrashBeforeCommit, CrashBeforeReply}
}

func (p CrashPoint) String() string {
	switch p {
	case CrashBeforeKernel:
		return "before-kernel"
	case CrashMidKernel:
		return "mid-kernel"
	case CrashBeforeCommit:
		return "before-commit"
	case CrashBeforeReply:
		return "before-reply"
	default:
		return fmt.Sprintf("crashpoint(%d)", int(p))
	}
}

// RecoveryCrashPoint is the audit Point of a nested power failure injected
// during recovery replay (RestartWithRecrash).
const RecoveryCrashPoint = "mid-recovery"

// CrashAt power-fails the shard at the given pipeline point while applying
// b. For every point except CrashBeforeReply the batch is NOT acknowledged
// (the committed image ignores it) and Restart must erase its effects; at
// CrashBeforeReply the batch is durable and counts as committed. Only
// GPM-class logging modes support crash injection (abortAfterOps bounds
// the device ops of a mid-kernel crash). The crash runs through apply with
// a one-shot plan, so it is the same path an armed ShardCrashPlan takes; it
// does not count as a fired plan.
func (s *Shard) CrashAt(b *Batch, p CrashPoint, abortAfterOps int64) error {
	if !s.mode.UsesGPM() {
		return fmt.Errorf("serve: crash injection requires a GPM mode, shard runs %s", s.mode)
	}
	if s.down {
		return fmt.Errorf("serve: shard %d already down", s.id)
	}
	if p < CrashBeforeKernel || p > CrashBeforeReply {
		return fmt.Errorf("serve: unknown crash point %d", int(p))
	}
	if err := s.checkBatch(b); err != nil {
		return err
	}
	if b.Mutations() == 0 {
		return fmt.Errorf("serve: crash injection needs mutations to lose")
	}
	_, err := s.apply(b, &ShardCrashPlan{Point: p, AbortAfterOps: abortAfterOps})
	var down *ShardDownError
	if errors.As(err, &down) {
		return nil
	}
	return err
}

// Restart brings a crashed shard back: if the durable transaction flag is
// set it runs the Fig 6b recovery kernel to undo the partial batch, else it
// drops the undo entries a crash inside the last commit left behind. Then
// it reloads the HBM mirror from the durable store (the restart-time data
// load). It returns the simulated restore time.
func (s *Shard) Restart() (sim.Duration, error) { return s.RestartWithRecrash(0, nil, 0) }

// RestartWithRecrash is Restart with nested power failures injected during
// the recovery replay itself: depth times, the undo kernels are aborted
// after a shrinking device-op budget and the node power-fails again (under
// model when non-nil), before a final clean recovery completes. Undo
// replay is idempotent — entries are removed from the log only after their
// rollback is durable — so every retry converges.
func (s *Shard) RestartWithRecrash(depth int, model pmem.FaultModel, fseed uint64) (sim.Duration, error) {
	ctx := s.env.Ctx
	start := ctx.Timeline.Total()
	txSet := kvstore.Logged(s.mode) && s.store.TxFlagSet()
	var replayed []int
	var undone int64
	recrashes := 0
	if txSet {
		for d := depth; d > 0; d-- {
			// Die again mid-replay: bound the undo kernels to a shrinking
			// budget, then power-fail the half-recovered node.
			budget := int64(16 * d)
			ctx.Dev.SetAbortCheck(func(op int64) bool { return op >= budget })
			s.recoverLogs() // partial by construction; errors surface on the final pass
			ctx.Dev.SetAbortCheck(nil)
			if model != nil {
				ctx.CrashWith(model, fseed+uint64(d))
			} else {
				ctx.Crash()
			}
			recrashes++
			s.audit.Record(obs.AuditEvent{
				Type: obs.AuditCrash, Shard: s.id, Mode: s.mode.String(),
				Point:  RecoveryCrashPoint,
				Detail: fmt.Sprintf("re-crash %d during recovery replay (budget %d device ops)", recrashes, budget),
			})
		}
		g, u, err := s.recoverLogs()
		if err != nil {
			return 0, err
		}
		replayed, undone = g, u
		s.dedupRecover(true)
		s.store.SetTxFlag(false)
	} else {
		for _, g := range s.geoms {
			if g.Log != nil {
				s.store.Truncate(g)
			}
		}
		s.dedupRecover(false)
	}
	// Reload the working mirror from the durable store, the restart cost
	// every mode pays.
	s.store.ReloadMirror()
	s.oraShadowReload()
	s.down = false
	s.restarts.Add(1)
	restore := ctx.Timeline.Total() - start
	s.env.AddRestore(restore)
	s.audit.Record(obs.AuditEvent{
		Type: obs.AuditRestart, Shard: s.id, Mode: s.mode.String(),
		TxSet: txSet, Geometries: replayed, SlotsRolledBack: undone,
		RestoreUS: float64(restore) / 1e3,
		OracleHWM: s.oraShadow,
		Detail:    recrashDetail(recrashes),
	})
	return restore, nil
}

// Restarts returns how many crash-recovery cycles the shard has completed.
// It counts whether or not telemetry is attached.
func (s *Shard) Restarts() int64 { return s.restarts.Load() }

// recrashDetail annotates a restart audit event with nested-crash count.
func recrashDetail(n int) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf("survived %d nested re-crashes during replay", n)
}

// recoverLogs replays every geometry's HCL log against the durable store
// (Fig 6b), returning the geometries replayed and undo entries applied.
func (s *Shard) recoverLogs() ([]int, int64, error) {
	var replayed []int
	var undone int64
	for i := range s.geoms {
		g := &s.geoms[i]
		log, err := s.env.Ctx.LogOpen(logPath(g.Grid))
		if err != nil {
			return nil, 0, err
		}
		g.Log = log
		replayed = append(replayed, g.Grid)
		n, err := s.store.Undo(*g)
		if err != nil {
			return nil, 0, err
		}
		undone += n
	}
	return replayed, undone, nil
}

// Verify checks that the DURABLE store matches the committed image slot by
// slot — acknowledged mutations present, unacknowledged ones absent. The
// image folds the logical mutations, not the kernel ops the seal derived
// from them, so Verify also checks the seal.
func (s *Shard) Verify() error {
	if err := s.store.CheckDurable(s.mvcc.image()); err != nil {
		err = fmt.Errorf("serve: shard %d %w", s.id, err)
		s.audit.Record(obs.AuditEvent{
			Type: obs.AuditVerify, Shard: s.id, Mode: s.mode.String(),
			Outcome: "fail", Err: err.Error(),
		})
		return err
	}
	s.audit.Record(obs.AuditEvent{
		Type: obs.AuditVerify, Shard: s.id, Mode: s.mode.String(), Outcome: "ok",
	})
	return nil
}
