package serve

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/gpm-sim/gpm/internal/workloads"
)

// refMVCC is the per-key version-chain model the slot rows replaced, kept
// as the reference mvccState must agree with: per key, {ts, val} versions
// in ascending ts (val 0 = deleted, or evicted by a colliding SET at the
// same ts), one slot image beside them, and a GC that trims every chain to
// its newest version at or below the watermark.
type refMVCC struct {
	chains       map[uint64][][2]uint64 // key -> {ts, val}
	slots        [][2]uint64            // slot -> {key, val}
	floor, maxTS uint64
}

func (r *refMVCC) insert(key, ts, val uint64) {
	ch := r.chains[key]
	i := sort.Search(len(ch), func(i int) bool { return ch[i][0] >= ts })
	if i < len(ch) && ch[i][0] == ts {
		ch[i][1] = val
	} else {
		ch = append(ch[:i], append([][2]uint64{{ts, val}}, ch[i:]...)...)
	}
	r.chains[key] = ch
	r.maxTS = max(r.maxTS, ts)
}

func (r *refMVCC) commit(key, val uint64, del bool, ts uint64, slot int) {
	occ := r.slots[slot][0]
	switch {
	case del:
		r.insert(key, ts, 0)
		if occ == key {
			r.slots[slot] = [2]uint64{}
		}
		return
	case occ != 0 && occ != key:
		r.insert(occ, ts, 0)
	}
	r.insert(key, ts, val)
	r.slots[slot] = [2]uint64{key, val}
}

func (r *refMVCC) readAt(key, ts uint64) (val uint64, found, tooOld bool) {
	if ts < r.floor {
		return 0, false, true
	}
	ch := r.chains[key]
	for i := len(ch) - 1; i >= 0; i-- {
		if ch[i][0] <= ts {
			return ch[i][1], ch[i][1] != 0, false
		}
	}
	return 0, false, false
}

func (r *refMVCC) latestTS(key uint64) uint64 {
	if ch := r.chains[key]; len(ch) > 0 {
		return ch[len(ch)-1][0]
	}
	return 0
}

func (r *refMVCC) gc(wm uint64) {
	if wm <= r.floor {
		return
	}
	for key, ch := range r.chains {
		keep := 0
		for i := range ch {
			if ch[i][0] <= wm {
				keep = i
			}
		}
		ch = ch[keep:]
		if len(ch) == 1 && ch[0][1] == 0 && ch[0][0] <= wm {
			delete(r.chains, key)
			continue
		}
		r.chains[key] = ch
	}
	r.floor = wm
}

func (r *refMVCC) reset(rts uint64) {
	r.chains = map[uint64][][2]uint64{}
	for _, kv := range r.slots {
		if kv[0] != 0 {
			r.chains[kv[0]] = [][2]uint64{{rts, kv[1]}}
		}
	}
	r.maxTS, r.floor = max(r.maxTS, rts), rts
}

// FuzzMVCCHistory drives a 2-slot mvccState and the chain model through the
// same steps — SETs, DELs of present and absent keys, multi-write rows at
// one ts, legacy batches, floor raises and crash-restart resets — over four
// keys that collide two to a slot, and compares them after every step:
// every key's read at every ts from just below the floor to just past
// maxTS, its conflict probe, and both slot images. The probe is compared as max(latestTS, floor): the two
// models drop history at different moments (a slot trims on append, the
// chains at the floor raise), but only below the floor, which lies below
// every live snapshot, so no first-committer-wins verdict can tell them
// apart.
func FuzzMVCCHistory(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 1, 9, 0, 7, 0},       // SET 2; DEL of the absent key 4, which shares its slot
		{0, 0, 5, 0, 2, 7},       // SET 1; SET 3 evicts it
		{0, 0, 5, 4, 1, 0, 2, 7}, // SET 1; floor raise; SET 3 evicts it above the floor
		{0, 0, 5, 0, 0, 6, 0, 0, 7, 4, 3, 0, 0, 8, 4, 9, 0, 2, 9}, // trims on append
		{2, 2, 0, 5, 2, 6, 6, 0, 2, 1, 1, 3, 0, 4},                // one ts: SET 1, SET 3, DEL 3; then SET 2, SET 1
		{3, 9, 3, 51, 4, 1, 3, 4},                                 // legacy: SET 2+1; SET 4, DEL 3; floor; DEL 2
		{0, 0, 5, 0, 3, 7, 5, 0, 1, 0, 0, 5, 0, 0, 2, 1},          // SET 1, SET 4; reset; SET 2, DEL 2, SET 3
		{12, 0, 5, 12, 2, 6, 4, 0, 12, 1, 3},                      // ts gaps: reads between rows
	} {
		f.Add(seed)
	}
	slotOf := func(key uint64) int { return int(key % 2) }
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 { // every step compares the whole history
			data = data[:64]
		}
		m := newMVCC(2)
		ref := &refMVCC{chains: map[uint64][][2]uint64{}, slots: make([][2]uint64, 2)}
		next := func() uint64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return uint64(b)
		}
		// nextTS is the next commit ts: past every row and the floor, as the
		// oracle allocates, with an occasional gap so reads between rows
		// happen.
		nextTS := func(gap uint64) uint64 { return max(m.maxTS, m.floorTS) + 1 + gap%2 }
		write := func(ts uint64) {
			op, val := next(), next()+1
			key, del := 1+op%4, op&4 != 0
			m.commitVer(key, val, del, ts, slotOf(key))
			ref.commit(key, val, del, ts, slotOf(key))
		}
		for step := 0; len(data) > 0; step++ {
			switch op := next(); op % 6 {
			case 0, 1:
				write(nextTS(op >> 3))
			case 2: // a multi-write transaction: 1-3 rows at one ts
				ts := nextTS(op >> 3)
				for n := 1 + next()%3; n > 0; n-- {
					write(ts)
				}
			case 3: // a legacy batch: at most one kernel op per slot
				var b Batch
				ts := ref.maxTS + 1
				for slot, bits := uint64(0), next(); slot < 2; slot, bits = slot+1, bits>>3 {
					key := 2 - slot + 2*(bits>>1&1) // slot 0: 2 or 4; slot 1: 1 or 3
					switch bits & 5 {
					case 1:
						val := ts*7 + slot + 1
						b.SetKeys, b.SetVals = append(b.SetKeys, key), append(b.SetVals, val)
						ref.commit(key, val, false, ts, slotOf(key))
					case 4:
						b.DelKeys = append(b.DelKeys, key)
						ref.commit(key, 0, true, ts, slotOf(key))
					}
				}
				m.commit(&b, slotOf)
			case 4: // a floor raise to a watermark at most one past maxTS
				wm := ref.floor + next()%(ref.maxTS+2-ref.floor)
				m.raiseFloor(wm)
				ref.gc(wm)
			case 5:
				rts := nextTS(op >> 3)
				m.reset(rts)
				ref.reset(rts)
			}
			if m.maxTS != ref.maxTS || m.floorTS != ref.floor {
				t.Fatalf("step %d: maxTS/floor = %d/%d, want %d/%d", step, m.maxTS, m.floorTS, ref.maxTS, ref.floor)
			}
			for key := uint64(1); key <= 4; key++ {
				for ts := max(ref.floor, 1) - 1; ts <= ref.maxTS+1; ts++ {
					gv, gf, gt := m.readAt(key, slotOf(key), ts)
					wv, wf, wt := ref.readAt(key, ts)
					if gv != wv || gf != wf || gt != wt {
						t.Fatalf("step %d: readAt(%d, @%d) = (%d, %v, %v), want (%d, %v, %v); rows %v",
							step, key, ts, gv, gf, gt, wv, wf, wt, m.rows[slotOf(key)])
					}
				}
				if got, want := max(m.latestTS(key, slotOf(key)), ref.floor), max(ref.latestTS(key), ref.floor); got != want {
					t.Fatalf("step %d: latestTS(%d) = %d, want %d (floor %d); rows %v",
						step, key, got, want, ref.floor, m.rows[slotOf(key)])
				}
			}
			for slot := range ref.slots {
				if k, v := m.slotImage(slot); [2]uint64{k, v} != ref.slots[slot] {
					t.Fatalf("step %d: slot %d image = (%d, %d), want %v", step, slot, k, v, ref.slots[slot])
				}
			}
		}
	})
}

// The slot rows trim themselves: however many writes a shard takes, its
// history stays under one row per slot plus two floor cadences of writes.
// An open snapshot pins the floor, so rows grow while a transaction sits in
// TXN; once it ends, one floor cadence of epochs and one write per slot
// bring them back under the bound.
func TestMVCCRowsBounded(t *testing.T) {
	srv, addr := startServer(t, Config{Mode: workloads.GPM, Shards: 1, Sets: 1, MaxBatch: 8})
	defer srv.Shutdown(5 * time.Second)
	sh := srv.Shards()[0]
	bound := sh.store.Slots() + 2*mvccFloorEvery
	br, c := dial(t, addr)
	defer c.Close()
	set := func(key uint64, val int) {
		if got := roundTrip(t, c, br, fmt.Sprintf("SET %d %d", key, val)); got != "OK" {
			t.Fatalf("SET %d -> %q", key, got)
		}
	}

	peak := 0
	for i := 0; i < 2000; i++ {
		set(uint64(i%64+1), i+1)
		_, rows := sh.mvcc.stats()
		peak = max(peak, rows)
	}
	t.Logf("peak rows over 2000 SETs: %d (bound %d)", peak, bound)
	if peak >= bound {
		t.Fatalf("rows peaked at %d, want < %d", peak, bound)
	}

	br2, c2 := dial(t, addr)
	defer c2.Close()
	if got := roundTrip(t, c2, br2, "HELLO 2"); got != "HELLO 2 1" {
		t.Fatalf("HELLO -> %q", got)
	}
	snap := beginTxn(t, func(req string) string { return roundTrip(t, c2, br2, req) })
	for i := 0; i < 4*bound; i++ {
		set(uint64(i%64+1), i+1)
	}
	if _, n := sh.mvcc.stats(); n <= bound {
		t.Fatalf("rows with snapshot %d pinned = %d, want > %d", snap, n, bound)
	}
	if got := roundTrip(t, c2, br2, fmt.Sprintf("ABORT %d", snap)); got != "ABORTED" {
		t.Fatalf("ABORT -> %q", got)
	}
	for i := 0; i < mvccFloorEvery; i++ {
		set(1, i+1)
	}
	for slot := 0; slot < sh.store.Slots(); slot++ {
		key := uint64(1)
		for sh.SlotOf(key) != slot {
			key++
		}
		set(key, slot+1)
	}
	if _, n := sh.mvcc.stats(); n >= bound {
		t.Errorf("rows after the pin ended = %d, want < %d", n, bound)
	}
}
