package serve

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/gpm-sim/gpm/internal/cpusim"
	"github.com/gpm-sim/gpm/internal/obs"
	"github.com/gpm-sim/gpm/internal/pmem"
)

// ReqID is a client-assigned request identity: a client ID and a sequence
// number, both >= 1 on the wire ("@<cid>.<seq> SET ..."). The zero ReqID
// marks a legacy unidentified request.
type ReqID struct{ CID, Seq uint64 }

// Zero reports whether the request carried no ID.
func (id ReqID) Zero() bool { return id.CID == 0 }

func (id ReqID) String() string { return fmt.Sprintf("@%d.%d", id.CID, id.Seq) }

// The PM dedup table is direct-mapped: dedupSlots entries of (cid, seq),
// slot = cid % dedupSlots. A colliding client evicts the incumbent — its
// restart-spanning dedup protection degrades to the volatile window — so
// deployments wanting full exactly-once across restarts keep concurrent
// identified clients under dedupSlots.
const (
	dedupSlots      = 256
	dedupEntryBytes = 16
	dedupTableBytes = dedupSlots * dedupEntryBytes
	jnlEntryBytes   = 24 // table slot, old cid, old seq
)

// dedupJnlBytes sizes the undo journal: one entry per possible advance in a
// maximally-filled epoch (write squashing lets logical mutations outnumber
// kernel slots, up to mutCap), count word last.
func dedupJnlBytes(maxBatch int) int64 {
	return int64(mutCap(maxBatch))*jnlEntryBytes + 64
}

// jnlCountOff is the journal's count-word offset (past the entry region).
func (s *Shard) jnlCountOff() uint64 { return uint64(mutCap(s.maxBatch)) * jnlEntryBytes }

// dedupJournal makes the undo journal describe the batch's dedup advances:
// zero the count (so a torn journal is empty, not stale), persist the old
// table values, then persist the count last. Called BEFORE the tx flag is
// set — recovery only trusts the journal while the flag is up, and by then
// the journal is complete by construction. A batch with no advances still
// owes a journal of count 0, or recovery would replay the last identified
// batch's entries and roll back marks that batch committed; the zero is
// written only when the durable count is nonzero (jnlDirty), so
// unidentified-only traffic never touches the journal.
func (s *Shard) dedupJournal(b *Batch) {
	n := len(b.DedupCID)
	if s.noDedupPersist || (n == 0 && !s.jnlDirty) {
		return
	}
	jnl := s.jnlFile.Mmap()
	countAddr := jnl + s.jnlCountOff()
	s.env.Ctx.RunCPU("dedup-journal", 1, func(t *cpusim.Thread) {
		t.WriteU64(countAddr, 0)
		t.PersistRange(countAddr, 8)
		if n == 0 {
			return
		}
		for i, cid := range b.DedupCID {
			slot := cid % dedupSlots
			off := jnl + uint64(i)*jnlEntryBytes
			t.WriteU64(off, slot)
			t.WriteU64(off+8, s.dedupShadow[slot*2])
			t.WriteU64(off+16, s.dedupShadow[slot*2+1])
		}
		t.PersistRange(jnl, int64(n*jnlEntryBytes))
		t.WriteU64(countAddr, uint64(n))
		t.PersistRange(countAddr, 8)
	})
	s.jnlDirty = n > 0
}

// dedupTableWrite persists the batch's dedup advances into the PM table.
// Under logging modes it runs inside the transaction window (after the
// mutate kernels, before the log clear), so the journal rolls it back if
// the batch never commits.
func (s *Shard) dedupTableWrite(b *Batch) {
	if s.noDedupPersist || len(b.DedupCID) == 0 {
		return
	}
	table := s.dedupFile.Mmap()
	s.env.Ctx.RunCPU("dedup-table", 1, func(t *cpusim.Thread) {
		for i, cid := range b.DedupCID {
			seq := b.DedupSeq[i]
			slot := cid % dedupSlots
			if s.dedupShadow[slot*2] == cid && s.dedupShadow[slot*2+1] >= seq {
				continue // defensive: never move a client's mark backwards
			}
			off := table + uint64(slot)*dedupEntryBytes
			t.WriteU64(off, cid)
			t.WriteU64(off+8, seq)
			t.PersistRange(off, dedupEntryBytes)
		}
	})
}

// dedupShadowAdvance folds a COMMITTED batch's advances into the host-side
// shadow (the volatile view admission resyncs from). Runs even with PM
// persistence disabled — the negative control's window still works within
// one server lifetime; only the restart round-trip is broken.
func (s *Shard) dedupShadowAdvance(b *Batch) {
	for i, cid := range b.DedupCID {
		seq := b.DedupSeq[i]
		slot := cid % dedupSlots
		if s.dedupShadow[slot*2] == cid && s.dedupShadow[slot*2+1] >= seq {
			continue
		}
		s.dedupShadow[slot*2] = cid
		s.dedupShadow[slot*2+1] = seq
	}
}

// dedupJournalRestore rolls the PM dedup table back to its pre-transaction
// image. Only called during recovery with the tx flag set; idempotent, so
// nested re-crashes during recovery replay it safely.
func (s *Shard) dedupJournalRestore() {
	jnlSnap := s.env.Ctx.Space.SnapshotPersistent(s.jnlFile.Mmap(), int(dedupJnlBytes(s.maxBatch)))
	n := binary.LittleEndian.Uint64(jnlSnap[s.jnlCountOff():])
	if n == 0 || n > uint64(mutCap(s.maxBatch)) {
		return // empty (or implausible ⇒ torn) journal: nothing recorded
	}
	table := s.dedupFile.Mmap()
	s.env.Ctx.RunCPU("dedup-restore", 1, func(t *cpusim.Thread) {
		for i := uint64(0); i < n; i++ {
			e := jnlSnap[i*jnlEntryBytes:]
			slot := binary.LittleEndian.Uint64(e)
			if slot >= dedupSlots {
				continue // torn entry guarded by the count, but stay defensive
			}
			off := table + slot*dedupEntryBytes
			t.WriteU64(off, binary.LittleEndian.Uint64(e[8:]))
			t.WriteU64(off+8, binary.LittleEndian.Uint64(e[16:]))
			t.PersistRange(off, dedupEntryBytes)
		}
	})
}

// dedupShadowReload rebuilds the host shadow from the durable PM table —
// the restart-time proof that high-water marks really round-tripped
// through persistent memory — and jnlDirty from the durable journal count.
func (s *Shard) dedupShadowReload() {
	snap := s.env.Ctx.Space.SnapshotPersistent(s.dedupFile.Mmap(), dedupTableBytes)
	for i := 0; i < dedupSlots; i++ {
		s.dedupShadow[i*2] = binary.LittleEndian.Uint64(snap[i*dedupEntryBytes:])
		s.dedupShadow[i*2+1] = binary.LittleEndian.Uint64(snap[i*dedupEntryBytes+8:])
	}
	count := s.env.Ctx.Space.SnapshotPersistent(s.jnlFile.Mmap()+s.jnlCountOff(), 8)
	s.jnlDirty = binary.LittleEndian.Uint64(count) != 0
}

// DedupSnapshot returns the committed per-client high-water marks (cid ->
// seq) from the shard's current shadow. The batcher resyncs its admission
// window from this after a crash-restart.
func (s *Shard) DedupSnapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for i := 0; i < dedupSlots; i++ {
		if cid := s.dedupShadow[i*2]; cid != 0 {
			out[cid] = s.dedupShadow[i*2+1]
		}
	}
	return out
}

// DisableDedupPersist is the chaos negative control: dedup state stops
// reaching PM, so high-water marks die with the process and a retried
// lost-ack mutation re-applies after restart — which the campaign's
// duplicate-apply invariant must catch.
func (s *Shard) DisableDedupPersist() { s.noDedupPersist = true }

// TallyViolations returns every request ID committed to the image more
// than once, sorted — the exactly-once invariant is that this is always
// empty.
func (s *Shard) TallyViolations() []ReqID {
	var out []ReqID
	for id, n := range s.tally {
		if n > 1 {
			out = append(out, id)
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

// ShardCrashPlan arms a power failure inside a future Apply call.
type ShardCrashPlan struct {
	// ApplyIndex counts mutation-bearing Apply calls (1-based); the plan
	// fires on the first call with index >= ApplyIndex, so it still
	// triggers when mutation batches are scarcer than expected.
	ApplyIndex int64
	// Point picks the pipeline stage the power fails at.
	Point CrashPoint
	// AbortAfterOps bounds the device ops of a mid-kernel crash (0 = 8).
	AbortAfterOps int64
	// Model, when non-nil, filters the crash cut through a PM fault model
	// (torn lines/words, reordering) seeded by FaultSeed.
	Model     pmem.FaultModel
	FaultSeed uint64
	// RecrashDepth injects that many nested power failures during the
	// recovery replay itself before recovery is allowed to finish.
	RecrashDepth int
}

// SetCrashPlan arms (or with nil, disarms) a crash plan. Call before the
// shard starts taking traffic; the plan is consumed when it fires.
func (s *Shard) SetCrashPlan(p *ShardCrashPlan) {
	if p != nil {
		cp := *p
		if cp.AbortAfterOps <= 0 {
			cp.AbortAfterOps = 8
		}
		if cp.ApplyIndex <= 0 {
			cp.ApplyIndex = 1
		}
		p = &cp
	}
	s.plan = p
	s.applyCount = 0
}

// PlanFired reports whether an armed plan has triggered.
func (s *Shard) PlanFired() bool { return s.fired != nil }

// RecoverFromPlan restarts a shard downed by its crash plan, honoring the
// plan's recovery fault model and nested re-crash depth; for a shard
// downed any other way it is a plain Restart.
func (s *Shard) RecoverFromPlan() error {
	p := s.fired
	if p == nil {
		_, err := s.Restart()
		return err
	}
	_, err := s.RestartWithRecrash(p.RecrashDepth, p.Model, p.FaultSeed)
	return err
}

// ShardDownError is returned by Apply when a crash plan fires: the shard
// is down and needs Restart/RecoverFromPlan. Committed tells the pipeline
// whether the batch reached durability before the power failed (the
// lost-ack case: clients must retry into the dedup window) or was rolled
// back (clients must retry into a fresh apply).
type ShardDownError struct {
	Point     CrashPoint
	Committed bool
}

func (e *ShardDownError) Error() string {
	state := "rolled back"
	if e.Committed {
		state = "committed, acks lost"
	}
	return fmt.Sprintf("serve: shard power-failed at %s (batch %s)", e.Point, state)
}

// crashNow executes a planned power failure: apply the fault model, mark
// the shard down, record the crash with the slots its batch put at risk,
// and hand the pipeline a ShardDownError.
func (s *Shard) crashNow(cp *ShardCrashPlan, atRisk int, detail string) error {
	model := "clean"
	if cp.Model != nil {
		s.env.Ctx.CrashWith(cp.Model, cp.FaultSeed)
		model = cp.Model.Name()
	} else {
		s.env.Ctx.Crash()
	}
	s.down = true
	s.audit.Record(obs.AuditEvent{
		Type: obs.AuditCrash, Shard: s.id, Mode: s.mode.String(),
		Point:     cp.Point.String(),
		AtRisk:    atRisk,
		OracleHWM: s.oraShadow,
		Detail:    fmt.Sprintf("power failure (%s model): %s", model, detail),
	})
	return &ShardDownError{Point: cp.Point, Committed: cp.Point == CrashBeforeReply}
}
