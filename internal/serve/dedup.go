package serve

// dedupState is the batcher-owned exactly-once admission filter for one
// shard. Three layers, checked in order:
//
//	pending — IDs admitted to a staged/in-flight epoch but not yet
//	  committed: a duplicate (retry or network-duplicated line) attaches
//	  as an extra reply waiter instead of re-admitting.
//	window  — a bounded ring of recently committed IDs with their exact
//	  reply line and a request fingerprint: a retry replays the original
//	  reply; a different payload under a committed ID is rejected.
//	hwm     — per-client committed high-water marks (resynced from the
//	  shard's PM dedup table after a crash-restart): a mutation retried
//	  after its window entry was evicted — or after a restart wiped the
//	  window — is acknowledged WITHOUT re-applying (mutation acks are
//	  deterministic), and a GET simply re-executes.
//
// The hwm shortcut is sound because admission keeps each client's requests
// in epoch order on a shard (see shardWorker.admit), so a client's marks
// advance contiguously: seq <= hwm really means "this request committed",
// never "a later one overtook it".
//
// A rolled-back crash is the one event that can puncture that contiguity:
// the crashed epoch's mutations vanish while later seqs of the same client
// may already be staged behind it. Those are flushed (see
// shardWorker.flushStaged) and the rolled-back seqs recorded as HOLES —
// per-client seqs that must re-commit before any later seq of that client
// is admitted. A request above an open hole is answered RETRY instead of
// admitted, so the high-water mark can never advance over a lost mutation
// and absorb its retry into a silent lost update.
//
// All state is volatile and owned by the batcher goroutine; durability
// comes from the shard's PM table + journal, which commit and roll back
// with the batch transaction itself. Holes survive resync untouched: they
// describe what the PM marks legitimately do not cover.
type dedupState struct {
	cap     int
	hwm     map[uint64]uint64  // cid -> highest committed seq on this shard
	pending map[ReqID]*request // admitted, outcome unknown
	window  map[ReqID]windowEntry
	ring    []ReqID // insertion ring; evicts FIFO once full
	head    int

	// holes are rolled-back-but-retriable seqs per client: admission
	// barriers until their retry re-commits.
	holes map[uint64]map[uint64]bool

	// absorbed logs every mutation ack derived from the high-water mark
	// alone (no window entry) — the acks whose "already committed" claim
	// rests on the contiguity argument. Server.AckViolations cross-checks
	// them against the applied-ID tally after shutdown.
	absorbed []ReqID

	// aborted is the decided-ABORT ledger: transaction COMMITs that lost
	// conflict validation, keyed by request ID. Unlike the window it is
	// never evicted and survives resync — an aborted COMMIT's seq never
	// advances the high-water mark, so without this ledger an aged-out
	// retry would fall through to the hwm-absorb path and be acknowledged
	// OK for a commit that never happened.
	aborted map[ReqID]windowEntry
}

// windowEntry is one committed request: its payload fingerprint and the
// exact reply line it was acknowledged with.
type windowEntry struct {
	fpr   uint64
	reply string
}

func newDedupState(windowCap int) *dedupState {
	return &dedupState{
		cap:     windowCap,
		hwm:     make(map[uint64]uint64),
		pending: make(map[ReqID]*request),
		window:  make(map[ReqID]windowEntry, windowCap),
		ring:    make([]ReqID, 0, windowCap),
	}
}

// dedup admission verdicts.
const (
	dedupAdmit  = iota // fresh ID: admit to an epoch (caller registers pending)
	dedupAttach        // duplicate of an in-flight ID: attached as reply waiter
	dedupReplay        // committed ID: reply carries the replayed/derived line
	dedupReject        // committed ID with a different payload: reply is the error
	dedupHold          // seq above an open hole: answered RETRY, not admitted
)

// check classifies one identified request. For dedupReplay/dedupReject the
// returned line is the reply to send; for dedupAttach the request was
// queued on the original's waiter list.
func (d *dedupState) check(r *request) (verdict int, reply string) {
	if p, ok := d.pending[r.rid]; ok {
		if p.fpr != r.fpr {
			// Same ID, different payload: attaching would ack THIS payload
			// with the pending one's verdict — a silent lost update. The
			// window and abort ledgers reject this reuse; in-flight IDs
			// must too.
			return dedupReject, r.line("ERR request id " + r.rid.String() + " already used with a different payload")
		}
		p.dups = append(p.dups, r.done)
		return dedupAttach, ""
	}
	if e, ok := d.window[r.rid]; ok {
		if e.fpr == r.fpr {
			return dedupReplay, e.reply
		}
		return dedupReject, r.line("ERR request id " + r.rid.String() + " already used with a different payload")
	}
	if e, ok := d.aborted[r.rid]; ok {
		if e.fpr == r.fpr {
			return dedupReplay, e.reply
		}
		return dedupReject, r.line("ERR request id " + r.rid.String() + " already used with a different payload")
	}
	if hs := d.holes[r.rid.CID]; hs != nil {
		if hs[r.rid.Seq] {
			// The retry of a hole. It must NEVER be hwm-absorbed (the hole
			// says it did not commit), and it may only re-admit once every
			// lower hole of the client is back in flight — otherwise it
			// could commit ahead of a lower seq and invert the client's
			// write order. Pending lower holes are fine: the client floor
			// chains this request into an epoch at or after theirs.
			for seq := range hs {
				if seq < r.rid.Seq {
					if _, ok := d.pending[ReqID{CID: r.rid.CID, Seq: seq}]; !ok {
						return dedupHold, r.line("RETRY")
					}
				}
			}
			return dedupAdmit, ""
		}
		if r.op != 'G' {
			for seq := range hs {
				if seq < r.rid.Seq {
					// A lower mutation of this client was rolled back and has
					// not re-committed. Committing this one first would invert
					// the client's write order, and advancing the high-water
					// mark over the hole would absorb its retry into a silent
					// lost update. Deferring makes THIS seq a hole too — the
					// client will retry it, and later seqs must now also wait.
					d.addHole(r.rid)
					return dedupHold, r.line("RETRY")
				}
			}
		}
		// GETs pass the holes freely: a read re-executes on retry anyway,
		// so it can neither lose a write nor invert write order.
	}
	if r.rid.Seq <= d.hwm[r.rid.CID] {
		if r.op != 'G' {
			// Committed mutation whose window entry is gone (evicted, or the
			// window died with a crash): mutation acks are deterministic, so
			// acknowledge without re-applying. A transaction COMMIT's ack is
			// deterministic only up to its commit timestamp, which the
			// window entry carried — the absorbed form elides it ("COMMITTED
			// 0": the commit happened, its timestamp aged out). Aborted
			// COMMITs can never reach here: they advance no high-water mark
			// and their ledger entry was checked above.
			d.absorbed = append(d.absorbed, r.rid)
			if r.op == 'C' {
				return dedupReplay, r.line("COMMITTED 0")
			}
			return dedupReplay, r.line("OK")
		}
		// A committed GET re-executes: reads are idempotent.
	}
	return dedupAdmit, ""
}

// addHole records a rolled-back seq as an admission barrier for its client.
func (d *dedupState) addHole(rid ReqID) {
	if d.holes == nil {
		d.holes = make(map[uint64]map[uint64]bool)
	}
	hs := d.holes[rid.CID]
	if hs == nil {
		hs = make(map[uint64]bool)
		d.holes[rid.CID] = hs
	}
	hs[rid.Seq] = true
}

// register records an ID admitted to an epoch.
func (d *dedupState) register(r *request) { d.pending[r.rid] = r }

// remember windows a committed request that never rode an epoch (cache-hit
// and MVCC instant GETs): retries replay the same reply.
func (d *dedupState) remember(rid ReqID, fpr uint64, reply string) {
	d.insert(rid, windowEntry{fpr: fpr, reply: reply})
}

// rememberAbort records a COMMIT's conflict-abort verdict in the permanent
// ledger (and the window, for the fast path). Retries replay the ABORT.
// An abort is a DECIDED outcome, so it also closes any hole the rid left
// from a rolled-back crash: the client's later seqs need not wait for a
// commit that will never happen (its retries hit the ledger first, so the
// advancing high-water mark can never absorb it as committed).
func (d *dedupState) rememberAbort(rid ReqID, fpr uint64, reply string) {
	if d.aborted == nil {
		d.aborted = make(map[ReqID]windowEntry)
	}
	d.aborted[rid] = windowEntry{fpr: fpr, reply: reply}
	d.insert(rid, windowEntry{fpr: fpr, reply: reply})
	if hs := d.holes[rid.CID]; hs[rid.Seq] {
		delete(hs, rid.Seq)
		if len(hs) == 0 {
			delete(d.holes, rid.CID)
		}
	}
}

// commit retires a committed rider: window its reply, advance its client's
// high-water mark, release duplicate waiters with the same reply.
func (d *dedupState) commit(r *request, reply string) {
	delete(d.pending, r.rid)
	if hs := d.holes[r.rid.CID]; hs[r.rid.Seq] {
		delete(hs, r.rid.Seq)
		if len(hs) == 0 {
			delete(d.holes, r.rid.CID)
		}
	}
	d.insert(r.rid, windowEntry{fpr: r.fpr, reply: reply})
	if r.rid.Seq > d.hwm[r.rid.CID] {
		d.hwm[r.rid.CID] = r.rid.Seq
	}
	for _, c := range r.dups {
		c <- reply
	}
	r.dups = nil
}

// abort retires a rider whose epoch failed or was rolled back by a crash:
// the ID leaves pending with NO window entry (a retry must re-admit), and
// duplicate waiters get the same terminal line the rider got.
func (d *dedupState) abort(r *request, reply string) {
	delete(d.pending, r.rid)
	for _, c := range r.dups {
		c <- reply
	}
	r.dups = nil
}

// insert adds a window entry, evicting FIFO at capacity.
func (d *dedupState) insert(rid ReqID, e windowEntry) {
	if d.cap < 1 {
		return
	}
	if _, ok := d.window[rid]; ok {
		d.window[rid] = e
		return
	}
	if len(d.ring) < d.cap {
		d.ring = append(d.ring, rid)
	} else {
		delete(d.window, d.ring[d.head])
		d.ring[d.head] = rid
	}
	d.head = (d.head + 1) % d.cap
	d.window[rid] = e
}

// resync rebuilds the committed view after a crash-restart: the window and
// marks are replaced by the shard's PM-backed snapshot (proving the marks
// really survived through persistent memory), while pending entries —
// riders of epochs still staged — are kept.
func (d *dedupState) resync(snap map[uint64]uint64) {
	d.window = make(map[ReqID]windowEntry, d.cap)
	d.ring = d.ring[:0]
	d.head = 0
	d.hwm = make(map[uint64]uint64, len(snap))
	for cid, seq := range snap {
		d.hwm[cid] = seq
	}
}
