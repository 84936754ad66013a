package serve

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Protocol version 2 adds MVCC snapshot-isolation transactions on top of
// the v1 line protocol. A connection starts in v1; sending
//
//	HELLO <ver>                       ->  HELLO <negotiated> <shards>
//
// negotiates up to min(ver, 2) and reports the server's shard count (write
// sets of one transaction must stay on one shard: keys agreeing mod the
// shard count). The v2 verbs:
//
//	TXN                               ->  BEGIN <snap>
//	GET <key> @<snap>                 ->  VALUE <v> | NOTFOUND | ERR snapshot too old
//	COMMIT <snap> [S <k> <v>|D <k>]…  ->  COMMITTED <cts> | ABORT <key> | ERR …
//	ABORT <snap>                      ->  ABORTED
//
// BEGIN hands out the oracle's stable snapshot floor: every commit unit at
// or below it is already durable, so snapshot reads never see a
// half-committed epoch and never block on one. COMMIT's write set is
// validated first-committer-wins (ABORT names the first conflicting key)
// and commits atomically inside one kernel epoch. All v1 verbs (and the
// @<cid>.<seq> exactly-once prefix) keep working unchanged; a COMMIT
// retried after its window entry aged out is acknowledged "COMMITTED 0"
// (commit timestamp elided — only its success survived).
const maxProtoVersion = 2

// txnOp is a transaction COMMIT's write set riding a request (op 'C').
type txnOp struct {
	snap uint64 // snapshot the transaction read at
	keys []uint64
	vals []uint64
	dels []bool
	cts  uint64 // commit timestamp, assigned at admission after validation
}

// connState is one connection's protocol state: the negotiated version and
// the snapshots it holds open (TXN issued, not yet committed or aborted).
type connState struct {
	ver   int
	snaps map[uint64]int
}

func (st *connState) hold(ts uint64) {
	if st.snaps == nil {
		st.snaps = make(map[uint64]int)
	}
	st.snaps[ts]++
}

// drop forgets one hold on ts and reports whether the connection really
// held it — duplicated ABORT lines (retries, network duplication) must not
// release another transaction's registry hold.
func (st *connState) drop(ts uint64) bool {
	if st.snaps[ts] <= 0 {
		return false
	}
	st.snaps[ts]--
	if st.snaps[ts] == 0 {
		delete(st.snaps, ts)
	}
	return true
}

// releaseAll returns every still-open hold to the registry (connection
// teardown: an abandoned transaction must not pin the GC watermark).
func (st *connState) releaseAll(sr *snapRegistry) {
	for ts, n := range st.snaps {
		for i := 0; i < n; i++ {
			sr.release(ts)
		}
	}
	st.snaps = nil
}

// parseHello recognizes the version-negotiation line (with an optional
// request-ID prefix). ok=false means the line is not a HELLO at all.
func parseHello(line string) (rid ReqID, ver int, ok bool) {
	fields := strings.Fields(line)
	i := 0
	if len(fields) > 0 && strings.HasPrefix(fields[0], "@") {
		cidS, seqS, cut := strings.Cut(fields[0][1:], ".")
		if !cut {
			return ReqID{}, 0, false
		}
		cid, err1 := strconv.ParseUint(cidS, 10, 64)
		seq, err2 := strconv.ParseUint(seqS, 10, 64)
		if err1 != nil || err2 != nil {
			return ReqID{}, 0, false
		}
		rid = ReqID{CID: cid, Seq: seq}
		i = 1
	}
	if len(fields)-i != 2 || !strings.EqualFold(fields[i], "HELLO") {
		return ReqID{}, 0, false
	}
	v, err := strconv.Atoi(fields[i+1])
	if err != nil {
		v = 0 // recognized HELLO with a bad version: caller answers ERR
	}
	return rid, v, true
}

// v2Req is one parsed protocol-v2 line.
type v2Req struct {
	op       byte // 'S','G','D','P','T','A','C','R' (R = snapshot read)
	key, val uint64
	rid      ReqID
	ts       uint64 // 'R': read snapshot; 'C'/'A': transaction snapshot
	keys     []uint64
	vals     []uint64
	dels     []bool
}

// parseRequestV2 parses the protocol-v2 superset grammar.
func parseRequestV2(line string) (q v2Req, err error) {
	fields := strings.Fields(line)
	if len(fields) > 0 && strings.HasPrefix(fields[0], "@") {
		cidS, seqS, ok := strings.Cut(fields[0][1:], ".")
		if !ok {
			return q, fmt.Errorf("request id must be @<cid>.<seq>")
		}
		q.rid.CID, err = strconv.ParseUint(cidS, 10, 64)
		if err == nil {
			q.rid.Seq, err = strconv.ParseUint(seqS, 10, 64)
		}
		if err != nil || q.rid.CID == 0 || q.rid.Seq == 0 {
			return v2Req{}, fmt.Errorf("request id parts must be decimal integers >= 1")
		}
		fields = fields[1:]
	}
	if len(fields) == 0 {
		return q, fmt.Errorf("empty request")
	}
	verb := strings.ToUpper(fields[0])
	args := fields[1:]
	needKey := func(s string) (uint64, error) {
		k, err := strconv.ParseUint(s, 10, 64)
		if err != nil || k == 0 {
			return 0, fmt.Errorf("key must be a decimal integer >= 1")
		}
		return k, nil
	}
	needVal := func(s string) (uint64, error) {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil || v == 0 {
			return 0, fmt.Errorf("value must be a decimal integer >= 1")
		}
		return v, nil
	}
	needTS := func(s string) (uint64, error) {
		t, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("snapshot must be a decimal integer")
		}
		return t, nil
	}
	switch verb {
	case "PING", "TXN":
		if len(args) != 0 {
			return q, fmt.Errorf("%s takes 0 argument(s)", verb)
		}
		q.op = verb[0] // 'P' / 'T'
	case "SET":
		if len(args) != 2 {
			return q, fmt.Errorf("SET takes 2 argument(s)")
		}
		q.op = 'S'
		if q.key, err = needKey(args[0]); err != nil {
			return q, err
		}
		if q.val, err = needVal(args[1]); err != nil {
			return q, err
		}
	case "DEL":
		if len(args) != 1 {
			return q, fmt.Errorf("DEL takes 1 argument(s)")
		}
		q.op = 'D'
		if q.key, err = needKey(args[0]); err != nil {
			return q, err
		}
	case "GET":
		if len(args) != 1 && len(args) != 2 {
			return q, fmt.Errorf("GET takes <key> [@<snap>]")
		}
		if q.key, err = needKey(args[0]); err != nil {
			return q, err
		}
		q.op = 'G'
		if len(args) == 2 {
			if !strings.HasPrefix(args[1], "@") {
				return q, fmt.Errorf("GET snapshot must be @<snap>")
			}
			if q.ts, err = needTS(args[1][1:]); err != nil {
				return q, err
			}
			q.op = 'R'
		}
	case "ABORT":
		if len(args) != 1 {
			return q, fmt.Errorf("ABORT takes 1 argument(s)")
		}
		q.op = 'A'
		if q.ts, err = needTS(args[0]); err != nil {
			return q, err
		}
	case "COMMIT":
		if len(args) < 1 {
			return q, fmt.Errorf("COMMIT takes <snap> [S <key> <val> | D <key>]...")
		}
		q.op = 'C'
		if q.ts, err = needTS(args[0]); err != nil {
			return q, err
		}
		for i := 1; i < len(args); {
			switch strings.ToUpper(args[i]) {
			case "S":
				if i+3 > len(args) {
					return q, fmt.Errorf("COMMIT write S needs <key> <val>")
				}
				k, err := needKey(args[i+1])
				if err != nil {
					return q, err
				}
				v, err := needVal(args[i+2])
				if err != nil {
					return q, err
				}
				q.keys = append(q.keys, k)
				q.vals = append(q.vals, v)
				q.dels = append(q.dels, false)
				i += 3
			case "D":
				if i+2 > len(args) {
					return q, fmt.Errorf("COMMIT write D needs <key>")
				}
				k, err := needKey(args[i+1])
				if err != nil {
					return q, err
				}
				q.keys = append(q.keys, k)
				q.vals = append(q.vals, 0)
				q.dels = append(q.dels, true)
				i += 2
			default:
				return q, fmt.Errorf("COMMIT write must be S <key> <val> or D <key>")
			}
		}
	default:
		return q, fmt.Errorf("unknown verb %q", fields[0])
	}
	return q, nil
}

// txnFingerprint condenses a COMMIT payload (snapshot + ordered write set)
// for ID-reuse detection, the transaction analogue of fingerprint().
func txnFingerprint(snap uint64, keys, vals []uint64, dels []bool) uint64 {
	h := mix64(snap + 0x9e3779b97f4a7c15)
	for i := range keys {
		d := uint64(0)
		if dels[i] {
			d = 1
		}
		h = mix64(h ^ mix64(keys[i]) ^ mix64(vals[i]+0xd1b54a32d192ed03) ^ d)
	}
	return h
}

// serveV2 dispatches one protocol-v2 line for a negotiated connection.
// Plain ops behave exactly as in v1; TXN/ABORT and snapshot reads are
// answered instantly at the connection (snapshots are stable by
// construction, so no epoch ride is needed); COMMITs with writes route
// through their home shard's batcher for validation, squash-staging, and
// exactly-once dedup.
func (s *Server) serveV2(line string, st *connState, instant func(string), futures chan chan string) {
	q, err := parseRequestV2(line)
	if err != nil {
		instant(idLine(q.rid, "ERR "+err.Error()))
		return
	}
	if q.op == 'P' {
		instant(idLine(q.rid, "PONG"))
		return
	}
	if s.draining.Load() {
		instant(idLine(q.rid, "ERR server draining"))
		s.cRejected.Inc()
		return
	}
	switch q.op {
	case 'T':
		// A snapshot is the oracle's stable floor: every commit unit at or
		// below it has group-committed or rolled back. Registering it pins
		// the version-chain GC watermark until the transaction ends.
		snap := s.snaps.begin(s.oracle)
		st.hold(snap)
		instant(idLine(q.rid, "BEGIN "+strconv.FormatUint(snap, 10)))
	case 'A':
		if st.drop(q.ts) {
			s.snaps.release(q.ts)
		}
		instant(idLine(q.rid, "ABORTED"))
	case 'R':
		if q.ts > s.oracle.current() {
			instant(idLine(q.rid, "ERR invalid snapshot"))
			return
		}
		val, ok, tooOld := s.shardFor(q.key).shard.MVCCReadAt(q.key, q.ts)
		switch {
		case tooOld:
			instant(idLine(q.rid, "ERR snapshot too old"))
		case ok:
			instant(idLine(q.rid, "VALUE "+strconv.FormatUint(val, 10)))
		default:
			instant(idLine(q.rid, "NOTFOUND"))
		}
	case 'C':
		if len(q.keys) == 0 {
			// Read-only transaction: nothing to validate or persist; its
			// "commit timestamp" is the snapshot it read at.
			if st.drop(q.ts) {
				s.snaps.release(q.ts)
			}
			instant(idLine(q.rid, "COMMITTED "+strconv.FormatUint(q.ts, 10)))
			return
		}
		if len(q.keys) > s.cfg.MaxBatch {
			instant(idLine(q.rid, fmt.Sprintf("ERR transaction write set exceeds max batch (%d)", s.cfg.MaxBatch)))
			return
		}
		w := s.shardFor(q.keys[0])
		for _, k := range q.keys[1:] {
			if s.shardFor(k) != w {
				instant(idLine(q.rid, "ERR transaction write set spans shards (keys must agree mod shard count)"))
				return
			}
		}
		// The registry hold protected this transaction's snapshot READS.
		// Conflict validation needs only each key's newest version
		// timestamp, which GC never trims, so the hold can go before the
		// verdict — a retried COMMIT (even from a fresh connection) still
		// validates correctly.
		if st.drop(q.ts) {
			s.snaps.release(q.ts)
		}
		r := &request{
			op: 'C', key: q.keys[0], id: s.nextID.Add(1), rid: q.rid,
			enq: time.Now(), done: make(chan string, 1),
			txn: &txnOp{snap: q.ts, keys: q.keys, vals: q.vals, dels: q.dels},
		}
		if !q.rid.Zero() {
			r.fpr = txnFingerprint(q.ts, q.keys, q.vals, q.dels)
		}
		w.reqs <- r
		futures <- r.done
	default: // 'S', 'G', 'D'
		r := &request{op: q.op, key: q.key, val: q.val, id: s.nextID.Add(1), rid: q.rid, enq: time.Now(), done: make(chan string, 1)}
		if !q.rid.Zero() {
			r.fpr = fingerprint(q.op, q.key, q.val)
		}
		s.shardFor(q.key).reqs <- r
		futures <- r.done
	}
}

// TxnStatus is the /statusz transaction section: live snapshot count and
// the oracle's allocation/stability frontier, plus each shard's MVCC read
// floor (the oldest snapshot its version chains can still answer).
type TxnStatus struct {
	ActiveSnapshots int      `json:"active_snapshots"`
	OracleTS        uint64   `json:"oracle_ts"`
	StableFloor     uint64   `json:"stable_floor"`
	MVCCFloors      []uint64 `json:"mvcc_floor_by_shard"`
}

// TxnStatus reports the server's MVCC/transaction state (safe from any
// goroutine while serving).
func (s *Server) TxnStatus() TxnStatus {
	ts := TxnStatus{
		ActiveSnapshots: s.snaps.active(),
		OracleTS:        s.oracle.current(),
		StableFloor:     s.oracle.snapshot(),
	}
	for _, w := range s.workers {
		ts.MVCCFloors = append(ts.MVCCFloors, w.shard.MVCCFloor())
	}
	return ts
}
