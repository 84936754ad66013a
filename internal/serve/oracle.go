package serve

import "sync"

// oraSlack is the reservation margin the oracle persists ahead of its
// counter. Every mutation-bearing epoch re-persists the reservation with
// its group-commit, so recovery only over-advances if more than oraSlack
// timestamps were handed out after the last durable write — impossible
// while allocations per epoch are bounded by the batch and queue depths
// (both orders of magnitude below the slack).
const oraSlack = 1 << 16

// tsOracle is the server-wide monotonic timestamp authority for MVCC
// snapshot isolation. Every commit unit (a plain mutation, or all the
// writes of one transaction COMMIT) draws one timestamp at admission;
// snapshot timestamps are the current stable floor: the largest ts T such
// that every unit with ts <= T has either group-committed or rolled back.
// Reads at a snapshot therefore never see a half-durable epoch, and never
// block on one either.
//
// Durability piggybacks on the shards: each epoch carries the oracle's
// reservation (counter + oraSlack) into persistent memory next to the
// dedup high-water mark, inside the same commit window. The value is
// monotone, so unlike the dedup table it needs no undo journal — a torn
// or rolled-back write leaves an older reservation, which recovery covers
// with the slack. A restarted oracle resumes past every timestamp it ever
// exposed, so versions and snapshots never regress across crash-restarts.
type tsOracle struct {
	mu   sync.Mutex
	next uint64 // next ts to allocate (counter; exposed ts are < next)
	// outstanding holds every allocated ts whose epoch has not yet
	// committed or rolled back. A unit lives in exactly one shard epoch:
	// the connection refuses a COMMIT whose write set spans shards.
	outstanding map[uint64]struct{}
}

// newOracle resumes from a persisted reservation (0 = fresh store).
func newOracle(recovered uint64) *tsOracle {
	return &tsOracle{next: recovered + 1, outstanding: make(map[uint64]struct{})}
}

// alloc draws one commit timestamp, held open until its epoch releases it.
func (o *tsOracle) alloc() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	ts := o.next
	o.next++
	o.outstanding[ts] = struct{}{}
	return ts
}

// release retires every ts in tss: their units are stable (committed or
// rolled back — either way no snapshot can be torn by them) and the floor
// may advance past them. Releasing a ts twice is a no-op.
func (o *tsOracle) release(tss ...uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, ts := range tss {
		delete(o.outstanding, ts)
	}
}

// snapshot returns the current stable floor: min(outstanding) - 1, or the
// full allocated prefix when nothing is in flight. Monotone over time —
// new allocations are always above the current minimum, and removing the
// minimum only raises it.
func (o *tsOracle) snapshot() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.floorLocked()
}

func (o *tsOracle) floorLocked() uint64 {
	min := o.next
	for ts := range o.outstanding {
		if ts < min {
			min = ts
		}
	}
	return min - 1
}

// reserve returns the durable reservation to persist with an epoch:
// everything allocated so far plus the slack that covers allocations
// between this persist and a crash.
func (o *tsOracle) reserve() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.next + oraSlack
}

// current returns the highest allocated ts (0 = none yet): the rebuild
// timestamp for slot rows reconstructed from a recovered image.
func (o *tsOracle) current() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.next - 1
}

// advanceTo bumps the counter to at least recovered+1 — a no-op while the
// oracle object outlives a shard crash (its counter is already ahead),
// but the honest resume path when an oracle is rebuilt from PM alone.
func (o *tsOracle) advanceTo(recovered uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if recovered >= o.next {
		o.next = recovered + 1
	}
}

// snapRegistry tracks live snapshot timestamps (open transactions) so the
// MVCC read floor never passes a row a live snapshot can read.
type snapRegistry struct {
	mu sync.Mutex
	m  map[uint64]int // snapshot ts -> open txn count
}

func newSnapRegistry() *snapRegistry {
	return &snapRegistry{m: make(map[uint64]int)}
}

// begin hands out the oracle's stable floor as a transaction snapshot and
// pins it, reading and pinning under the oracle's lock. watermark is
// computed under the same lock, so no floor raise can fall between a
// BEGIN's floor read and its pin and lift the MVCC floor above the
// snapshot it hands out.
func (sr *snapRegistry) begin(o *tsOracle) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	snap := o.floorLocked()
	sr.mu.Lock()
	sr.m[snap]++
	sr.mu.Unlock()
	return snap
}

// watermark is the MVCC read floor's watermark: the oracle's stable floor,
// or the oldest live snapshot when one is older.
func (sr *snapRegistry) watermark(o *tsOracle) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	wm := o.floorLocked()
	if smin, ok := sr.min(); ok && smin < wm {
		wm = smin
	}
	return wm
}

func (sr *snapRegistry) release(ts uint64) {
	sr.mu.Lock()
	if n, ok := sr.m[ts]; ok {
		if n <= 1 {
			delete(sr.m, ts)
		} else {
			sr.m[ts] = n - 1
		}
	}
	sr.mu.Unlock()
}

// min returns the oldest live snapshot and whether any exists.
func (sr *snapRegistry) min() (uint64, bool) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	var m uint64
	ok := false
	for ts := range sr.m {
		if !ok || ts < m {
			m, ok = ts, true
		}
	}
	return m, ok
}

// active is the number of open snapshots (statusz).
func (sr *snapRegistry) active() int {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	n := 0
	for _, c := range sr.m {
		n += c
	}
	return n
}
