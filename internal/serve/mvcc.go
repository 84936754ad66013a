package serve

import (
	"encoding/binary"
	"sync"

	"github.com/gpm-sim/gpm/internal/cpusim"
)

// mvccRow is one committed logical mutation of a store slot: its commit
// timestamp, the key it named, and the slot's occupant after it (a SET
// claims the slot; a DEL empties it only if its key holds it; occ 0 =
// empty). Recording the occupant, not just the named key, keeps a DEL of an
// absent key from hiding the key that does hold the slot.
type mvccRow struct {
	ts, key, occ, val uint64
}

// mvccState is a shard's one committed image: per store slot, its committed
// rows in ascending ts, the newest being the slot's committed occupant (the
// pair the durable store must hold). Rows are fed by the epoch
// group-commits and answer snapshot reads (GET@ts), conflict checks (latest
// commit ts of a key), the slot base images write-squashing folds over, hot
// GETs, and Verify, without touching the kernel. Rows of one slot arrive in
// ts order (admission allocates the ts, and a slot's later write never goes
// to an earlier epoch), so a commit appends, and it trims the slot's
// history below the read floor as it goes.
//
// Guarded by its own mutex: the applier folds each committed batch in at
// group-commit while the batcher reads slot images and connection
// goroutines serve GET@ts.
type mvccState struct {
	mu   sync.Mutex
	rows [][]mvccRow // slot -> committed rows, ascending ts
	// floorTS is the oldest readable snapshot: rows below the newest one at
	// or under it may have been trimmed (or predate a crash-restart
	// rebuild), so a read at ts < floorTS answers "snapshot too old"
	// instead of lying.
	floorTS uint64
	maxTS   uint64 // highest row ts committed (legacy batches append past it)
}

func newMVCC(slots int) *mvccState {
	return &mvccState{rows: make([][]mvccRow, slots)}
}

// top returns a slot's committed occupant (key 0 = empty); the caller
// holds mu.
func (m *mvccState) top(slot int) (key, val uint64) {
	if rs := m.rows[slot]; len(rs) > 0 {
		return rs[len(rs)-1].occ, rs[len(rs)-1].val
	}
	return 0, 0
}

// commitVer appends one committed logical mutation to its slot's rows and
// drops the rows below the newest one at or under the floor — no live
// snapshot can read them, so trimming costs O(rows appended) and needs no
// sweep. The caller holds mu. Rows sharing a ts (a multi-write
// transaction) all stay: the last one is the slot's state at that ts.
func (m *mvccState) commitVer(key, val uint64, del bool, ts uint64, slot int) {
	occ, oval := m.top(slot)
	if !del {
		occ, oval = key, val
	} else if occ == key {
		occ, oval = 0, 0
	}
	rs := append(m.rows[slot], mvccRow{ts: ts, key: key, occ: occ, val: oval})
	i := 0
	for i+1 < len(rs) && rs[i+1].ts <= m.floorTS {
		i++
	}
	m.rows[slot] = append(rs[:0], rs[i:]...)
	if ts > m.maxTS {
		m.maxTS = ts
	}
}

// commit appends a committed batch to the slot rows under one lock. Runs
// in the applier goroutine at the point the batch is known durable. A
// versioned batch folds its logical mutations (VerKeys); a legacy
// direct-Apply batch (store and golden tests, the bench's apply probe) has
// none, so its kernel arrays commit as one atomic unit at one synthetic ts
// just past everything already versioned.
func (m *mvccState) commit(b *Batch, slotOf func(uint64) int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(b.VerKeys) == 0 {
		ts := m.maxTS + 1
		for i, key := range b.SetKeys {
			m.commitVer(key, b.SetVals[i], false, ts, slotOf(key))
		}
		for _, key := range b.DelKeys {
			m.commitVer(key, 0, true, ts, slotOf(key))
		}
		return
	}
	for i, key := range b.VerKeys {
		var val uint64
		if !b.VerDel[i] {
			val = b.VerVals[i]
		}
		m.commitVer(key, val, b.VerDel[i], b.VerTS[i], slotOf(key))
	}
}

// readAt resolves key at snapshot ts: the newest row of its slot at or
// below ts, a hit iff that row leaves key occupying the slot. tooOld
// reports a snapshot below the floor — the caller must error rather than
// fabricate an answer from a trimmed history.
func (m *mvccState) readAt(key uint64, slot int, ts uint64) (val uint64, found, tooOld bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts < m.floorTS {
		return 0, false, true
	}
	rs := m.rows[slot]
	for i := len(rs) - 1; i >= 0; i-- {
		if rs[i].ts <= ts {
			if rs[i].occ != key {
				return 0, false, false
			}
			return rs[i].val, true, false
		}
	}
	return 0, false, false
}

// latestTS returns the ts of the newest row that named key or evicted it
// (the occupant before was key, after is not); 0 = none held — the
// commit-window conflict check: a transaction at snapshot S conflicts on
// key when latestTS(key) > S. A trimmed row lies at or below the floor,
// hence below every live snapshot, so trimming never changes a verdict.
func (m *mvccState) latestTS(key uint64, slot int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.rows[slot]
	for i := len(rs) - 1; i >= 0; i-- {
		if rs[i].key == key || (i > 0 && rs[i-1].occ == key && rs[i].occ != key) {
			return rs[i].ts
		}
	}
	return 0
}

// slotImage returns the committed (key, value) occupying a slot (key 0 =
// empty).
func (m *mvccState) slotImage(slot int) (key, val uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.top(slot)
}

// image lays the slots' committed occupants out in kvstore's model layout
// (two words per slot: key, value).
func (m *mvccState) image() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	img := make([]uint64, 2*len(m.rows))
	for slot := range m.rows {
		img[2*slot], img[2*slot+1] = m.top(slot)
	}
	return img
}

// raiseFloor raises the read floor to the watermark; later appends trim
// below it. The caller guarantees no live snapshot is below wm (watermark
// = min of open snapshots and the oracle's stable floor), so nothing
// readable is lost.
func (m *mvccState) raiseFloor(wm uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if wm > m.floorTS {
		m.floorTS = wm
	}
}

// reset rebuilds the history from the committed image after a
// crash-restart: every occupied slot keeps one row at rts, the rest empty,
// and the floor rises to rts — pre-crash snapshots answer "snapshot too
// old" instead of reading history the crash discarded.
func (m *mvccState) reset(rts uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for slot, rs := range m.rows {
		occ, val := m.top(slot)
		m.rows[slot] = rs[:0]
		if occ != 0 {
			m.rows[slot] = append(rs[:0], mvccRow{ts: rts, key: occ, occ: occ, val: val})
		}
	}
	if rts > m.maxTS {
		m.maxTS = rts
	}
	m.floorTS = rts
}

// stats returns the read floor and the rows held across all slots
// (statusz, tests).
func (m *mvccState) stats() (floor uint64, rows int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rs := range m.rows {
		rows += len(rs)
	}
	return m.floorTS, rows
}

// --- shard-facing MVCC and oracle-persistence surface ---

// MVCCLatest answers a plain GET from the committed image.
func (s *Shard) MVCCLatest(key uint64) (val uint64, found bool) {
	k, v := s.mvcc.slotImage(s.SlotOf(key))
	return v, k == key
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
