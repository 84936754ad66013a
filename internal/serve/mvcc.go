package serve

import (
	"encoding/binary"
	"sort"
	"sync"

	"github.com/gpm-sim/gpm/internal/cpusim"
)

// mvccVersion is one committed value of a key: the commit timestamp and the
// value it installed (0 = tombstone — the key was deleted, or evicted by a
// colliding key claiming its slot).
type mvccVersion struct {
	ts  uint64
	val uint64
}

// mvccState is a shard's one committed image: the slot array the durable
// store must equal, plus per-key version chains (ascending ts) fed by the
// same epoch group-commits and bounded by the watermark GC. It answers
// snapshot reads (GET@ts), conflict checks (latest commit ts of a key),
// the slot base images write-squashing folds over, hot GETs, and Verify,
// without touching the kernel.
//
// Guarded by its own mutex: the applier folds each committed batch in at
// group-commit while the batcher reads slot images and connection
// goroutines serve GET@ts.
type mvccState struct {
	mu     sync.Mutex
	chains map[uint64][]mvccVersion
	slots  []uint64 // slot -> committed key, value (kvstore's model layout; key 0 = empty)
	// floorTS is the oldest readable snapshot: versions at or below it may
	// have been garbage-collected (or predate a crash-restart rebuild), so a
	// read at ts < floorTS answers "snapshot too old" instead of lying.
	floorTS uint64
	maxTS   uint64 // highest version ts committed (legacy batches append past it)
}

func newMVCC(slots int) *mvccState {
	return &mvccState{chains: make(map[uint64][]mvccVersion), slots: make([]uint64, 2*slots)}
}

// insertVersion places {ts, val} into key's chain keeping ascending ts.
// An entry at an ALREADY-PRESENT ts overwrites it — last writer wins at
// one timestamp: a multi-write transaction's rows share its commit ts (a
// later row of the same key supersedes an earlier one), and a colliding
// SET's eviction tombstone lands at the same ts as the SET itself.
func (m *mvccState) insertVersion(key, ts, val uint64) {
	ch := m.chains[key]
	if n := len(ch); n == 0 || ch[n-1].ts < ts {
		m.chains[key] = append(ch, mvccVersion{ts: ts, val: val})
	} else {
		i := sort.Search(n, func(i int) bool { return ch[i].ts >= ts })
		if i < n && ch[i].ts == ts {
			ch[i].val = val
		} else {
			ch = append(ch, mvccVersion{})
			copy(ch[i+1:], ch[i:])
			ch[i] = mvccVersion{ts: ts, val: val}
			m.chains[key] = ch
		}
	}
	if ts > m.maxTS {
		m.maxTS = ts
	}
}

// commitVer folds one committed logical mutation into the image and the
// chains; the caller holds mu. A SET claims its slot: a colliding incumbent
// key is evicted, which is a delete at the same timestamp (the hash store
// holds one pair per slot). A DEL empties the slot only if the key holds it.
func (m *mvccState) commitVer(key, val uint64, del bool, ts uint64, slot int) {
	occ := m.slots[2*slot]
	if del {
		m.insertVersion(key, ts, 0)
		if occ == key {
			m.slots[2*slot], m.slots[2*slot+1] = 0, 0
		}
		return
	}
	if occ != 0 && occ != key {
		m.insertVersion(occ, ts, 0)
	}
	m.insertVersion(key, ts, val)
	m.slots[2*slot], m.slots[2*slot+1] = key, val
}

// readAt resolves key at snapshot ts: the newest version with version.ts <=
// ts. tooOld reports a snapshot below the GC floor — the caller must error
// rather than fabricate an answer from a trimmed chain.
func (m *mvccState) readAt(key, ts uint64) (val uint64, found, tooOld bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts < m.floorTS {
		return 0, false, true
	}
	ch := m.chains[key]
	for i := len(ch) - 1; i >= 0; i-- {
		if ch[i].ts <= ts {
			if ch[i].val == 0 {
				return 0, false, false
			}
			return ch[i].val, true, false
		}
	}
	return 0, false, false
}

// latestTS returns the newest committed version timestamp of key (0 =
// never written) — the commit-window conflict check: a transaction at
// snapshot S conflicts on key when latestTS(key) > S.
func (m *mvccState) latestTS(key uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ch := m.chains[key]; len(ch) > 0 {
		return ch[len(ch)-1].ts
	}
	return 0
}

// slotImage returns the committed (key, value) occupying a slot (key 0 =
// empty).
func (m *mvccState) slotImage(slot int) (key, val uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.slots[2*slot], m.slots[2*slot+1]
}

// gc trims every chain to the newest version at or below the watermark
// plus everything newer, and raises the read floor to the watermark. The
// caller guarantees no live snapshot is below wm (watermark = min of open
// snapshots and the oracle's stable floor), so nothing readable is lost;
// chains whose surviving state is a single tombstone drop entirely.
func (m *mvccState) gc(wm uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if wm <= m.floorTS {
		return
	}
	for key, ch := range m.chains {
		keep := 0
		for i, v := range ch {
			if v.ts <= wm {
				keep = i
			} else {
				break
			}
		}
		if keep > 0 {
			ch = append(ch[:0], ch[keep:]...)
		}
		if len(ch) == 1 && ch[0].val == 0 && ch[0].ts <= wm {
			delete(m.chains, key)
			continue
		}
		m.chains[key] = ch
	}
	m.floorTS = wm
}

// reset rebuilds the version chains from the committed image after a
// crash-restart: every live key gets a single version at rts, and the floor
// rises to rts — pre-crash snapshots answer "snapshot too old" instead of
// reading chains the crash discarded.
func (m *mvccState) reset(rts uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.chains = make(map[uint64][]mvccVersion)
	for slot := 0; slot*2 < len(m.slots); slot++ {
		if key := m.slots[slot*2]; key != 0 {
			m.chains[key] = []mvccVersion{{ts: rts, val: m.slots[slot*2+1]}}
		}
	}
	if rts > m.maxTS {
		m.maxTS = rts
	}
	m.floorTS = rts
}

// floor returns the current GC floor (tests, statusz).
func (m *mvccState) floor() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.floorTS
}

// --- shard-facing MVCC and oracle-persistence surface ---

// MVCCReadAt answers GET@ts from the committed version chains.
func (s *Shard) MVCCReadAt(key, ts uint64) (val uint64, found, tooOld bool) {
	return s.mvcc.readAt(key, ts)
}

// MVCCLatest answers a plain GET from the committed image.
func (s *Shard) MVCCLatest(key uint64) (val uint64, found bool) {
	k, v := s.mvcc.slotImage(s.SlotOf(key))
	return v, k == key
}

// MVCCLatestTS is the commit-window conflict probe.
func (s *Shard) MVCCLatestTS(key uint64) uint64 { return s.mvcc.latestTS(key) }

// MVCCSlotImage is the committed occupant of a store slot.
func (s *Shard) MVCCSlotImage(slot int) (key, val uint64) { return s.mvcc.slotImage(slot) }

// MVCCGC trims version chains to the watermark.
func (s *Shard) MVCCGC(wm uint64) { s.mvcc.gc(wm) }

// MVCCReset rebuilds chains from the committed image at rts (crash-restart).
func (s *Shard) MVCCReset(rts uint64) { s.mvcc.reset(rts) }

// MVCCFloor is the oldest readable snapshot (tests, statusz).
func (s *Shard) MVCCFloor() uint64 { return s.mvcc.floor() }

// mvccCommit folds a committed batch into the image and the version chains
// under one lock. Runs in the applier goroutine at the point the batch is
// known durable. A versioned batch folds its logical mutations (VerKeys); a
// legacy direct-Apply batch (store tests, crash harnesses) has none, so its
// kernel arrays commit as one atomic unit at one synthetic ts just past
// everything already versioned.
func (s *Shard) mvccCommit(b *Batch) {
	m := s.mvcc
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(b.VerKeys) == 0 {
		ts := m.maxTS + 1
		for i, key := range b.SetKeys {
			m.commitVer(key, b.SetVals[i], false, ts, s.SlotOf(key))
		}
		for _, key := range b.DelKeys {
			m.commitVer(key, 0, true, ts, s.SlotOf(key))
		}
		return
	}
	for i, key := range b.VerKeys {
		var val uint64
		if !b.VerDel[i] {
			val = b.VerVals[i]
		}
		m.commitVer(key, val, b.VerDel[i], b.VerTS[i], s.SlotOf(key))
	}
}

// oracleWrite persists the batch's oracle reservation (the timestamp
// high-water mark plus slack) into PM beside the dedup table. The value is
// monotone, so it is deliberately NOT journaled: rolling it back could
// expose an already-handed-out timestamp to reuse after recovery, which is
// exactly the regression the reservation exists to prevent. A crash that
// rolls the batch back leaves the reservation advanced — recovery resumes
// past it, wasting at most oraSlack timestamps.
func (s *Shard) oracleWrite(b *Batch) {
	if b.OracleHWM == 0 || b.OracleHWM <= s.oraShadow {
		return
	}
	addr := s.oraFile.Mmap()
	hwm := b.OracleHWM
	s.env.Ctx.RunCPU("oracle-hwm", 1, func(t *cpusim.Thread) {
		t.WriteU64(addr, hwm)
		t.PersistRange(addr, 8)
	})
	s.oraShadow = hwm
}

// oraShadowReload rereads the durable oracle reservation after a restart.
func (s *Shard) oraShadowReload() {
	snap := s.env.Ctx.Space.SnapshotPersistent(s.oraFile.Mmap(), 8)
	s.oraShadow = binary.LittleEndian.Uint64(snap)
}

// RecoveredOracleHWM is the durable timestamp reservation — after Restart,
// the point past which a rebuilt oracle must resume.
func (s *Shard) RecoveredOracleHWM() uint64 { return s.oraShadow }

// mutCap bounds the logical mutations one epoch may carry: squashing packs
// many client writes onto few kernel slots, but the dedup journal (sized at
// shard build time) must still fit one advance per possibly-distinct
// client.
func mutCap(maxBatch int) int { return 4 * maxBatch }
