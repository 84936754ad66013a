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
//
// The table shares its file with a redo record: a count word, then the
// (cid, seq) advances of the last logging batch that wrote the table. The
// store's tx flag guards the record: it is written while the flag is set
// and trusted only once the flag is clear, so the flag clear commits the
// store and the marks together.
const (
	dedupSlots      = 256
	dedupEntryBytes = 16
	dedupTableBytes = dedupSlots * dedupEntryBytes
)

// dedupFileBytes sizes the dedup file: the table, then a record with room
// for one advance per possibly-distinct client of a maximally-filled epoch
// (write squashing lets logical mutations outnumber kernel slots, up to
// mutCap).
func dedupFileBytes(maxBatch int) int64 {
	return dedupTableBytes + 8 + int64(mutCap(maxBatch))*dedupEntryBytes
}

// dedupAdvances returns, as flat (cid, seq) pairs, the advances of b that
// raise a durable mark. Only a mutation-bearing batch persists any: a GET
// above the durable mark simply re-executes on retry.
func (s *Shard) dedupAdvances(b *Batch) []uint64 {
	if s.noDedupPersist || b.Mutations() == 0 {
		return nil
	}
	var adv []uint64
	for i, cid := range b.DedupCID {
		slot := cid % dedupSlots
		if s.dedupShadow[slot*2] == cid && s.dedupShadow[slot*2+1] >= b.DedupSeq[i] {
			continue // never move a client's mark backwards
		}
		adv = append(adv, cid, b.DedupSeq[i])
	}
	return adv
}

// dedupRecord writes advances as the redo record, count first, and
// persists it once. It runs while the tx flag is set, so the record is
// durable before the flag clear that makes it trusted.
func (s *Shard) dedupRecord(adv []uint64) {
	rec := s.dedupFile.Mmap() + dedupTableBytes
	s.env.Ctx.RunCPU("dedup-record", 1, func(t *cpusim.Thread) {
		t.WriteU64(rec, uint64(len(adv)/2))
		for i, v := range adv {
			t.WriteU64(rec+8+uint64(i)*8, v)
		}
		t.PersistRange(rec, int64(8+8*len(adv)))
	})
}

// dedupTableWrite persists advances into the PM table and its host shadow.
// A batch writes its own advances after its commit; recovery replays the
// record through it.
func (s *Shard) dedupTableWrite(adv []uint64) {
	if len(adv) == 0 {
		return
	}
	table := s.dedupFile.Mmap()
	s.env.Ctx.RunCPU("dedup-table", 1, func(t *cpusim.Thread) {
		for i := 0; i < len(adv); i += 2 {
			off := table + adv[i]%dedupSlots*dedupEntryBytes
			t.WriteU64(off, adv[i])
			t.WriteU64(off+8, adv[i+1])
			t.PersistRange(off, dedupEntryBytes)
		}
	})
	for i := 0; i < len(adv); i += 2 {
		slot := adv[i] % dedupSlots
		s.dedupShadow[slot*2], s.dedupShadow[slot*2+1] = adv[i], adv[i+1]
	}
}

// dedupRecover settles the PM dedup table at restart and reloads the host
// shadow from it — the proof that high-water marks really round-tripped
// through persistent memory. With the tx flag set (txSet) the record may
// belong to the batch being rolled back, so its count is zeroed, durably,
// before the caller clears the flag. With the flag clear it belongs to the
// last committed batch, whose table write the crash may have cut short: if
// the table disagrees with it, it is replayed whole, in order. The replay
// is idempotent, since any later table write would have replaced the
// record first.
func (s *Shard) dedupRecover(txSet bool) {
	snap := s.env.Ctx.Space.SnapshotPersistent(s.dedupFile.Mmap(), int(dedupFileBytes(s.maxBatch)))
	for i := range s.dedupShadow {
		s.dedupShadow[i] = binary.LittleEndian.Uint64(snap[i*8:])
	}
	rec := snap[dedupTableBytes:]
	n := binary.LittleEndian.Uint64(rec)
	switch {
	case n == 0:
	case txSet:
		s.dedupRecord(nil)
	default:
		adv := make([]uint64, 2*n)
		for i := range adv {
			adv[i] = binary.LittleEndian.Uint64(rec[8+i*8:])
		}
		for i := 0; i < len(adv); i += 2 {
			if slot := adv[i] % dedupSlots; s.dedupShadow[slot*2] != adv[i] || s.dedupShadow[slot*2+1] != adv[i+1] {
				s.dedupTableWrite(adv)
				break
			}
		}
	}
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
