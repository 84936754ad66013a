package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The wire protocol is one line grammar (DESIGN.md §11.1). Keys, values
// and snapshots are decimal uint64; keys and values are >= 1.
//
//	SET <key> <value>                 ->  OK
//	GET <key>                         ->  VALUE <value> | NOTFOUND
//	DEL <key>                         ->  OK
//	PING                              ->  PONG
//	HELLO <ver>                       ->  HELLO <negotiated> <shards>
//
// Protocol version 2 adds MVCC snapshot-isolation transactions:
//
//	TXN                               ->  BEGIN <snap>
//	GET <key> @<snap>                 ->  VALUE <v> | NOTFOUND | ERR snapshot too old
//	COMMIT <snap> [S <k> <v>|D <k>]…  ->  COMMITTED <cts> | ABORT <key> | ERR …
//	ABORT <snap>                      ->  ABORTED
//
// A connection starts in v1 and may send HELLO at any time: it negotiates
// min(ver, 2) and reports the shard count (the write set of one transaction
// must stay on one shard: keys agreeing mod the shard count). On v1 the
// v2-only verbs are unknown and GET takes only a key.
//
// Any request may carry a client-assigned identity prefix,
//
//	@<cid>.<seq> SET <key> <value>    ->  @<cid>.<seq> OK
//
// (cid and seq decimal uint64 >= 1; the reply echoes the prefix). An
// identified request is exactly-once: retrying it — after a dropped
// connection, an injected duplicate, or a server crash-restart — replays
// the original reply instead of re-applying the mutation. A reply of
// "RETRY" means a crash interrupted the request before its acknowledgement
// and the client should resend it verbatim. Each client must issue its
// seqs in increasing order per connection (retries resend old seqs first);
// the dedup window spans restarts because per-client high-water marks
// commit with the batch transaction in persistent memory.
//
// BEGIN hands out the oracle's stable snapshot floor: every commit unit at
// or below it is already durable, so snapshot reads never see a
// half-committed epoch and never block on one. COMMIT's write set is
// validated first-committer-wins (ABORT names the first conflicting key)
// and commits atomically inside one kernel epoch. A COMMIT retried after
// its window entry aged out is acknowledged "COMMITTED 0" (commit
// timestamp elided — only its success survived).
const maxProtoVersion = 2

// maxLine bounds one request line, its newline included. A longer line is
// answered with one ERR and skipped; the connection keeps serving.
const maxLine = 1 << 16

var (
	errLineTooLong = fmt.Errorf("request line exceeds %d bytes", maxLine)
	errKey         = errors.New("key must be a decimal integer >= 1")
	errValue       = errors.New("value must be a decimal integer >= 1")
	errSnap        = errors.New("snapshot must be a decimal integer")
)

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

// end returns one of the connection's holds on ts to the registry. A ts
// the connection does not hold is ignored: duplicated ABORT lines (retries,
// network duplication) must not release another transaction's hold.
func (st *connState) end(ts uint64, sr *snapRegistry) {
	if st.snaps[ts] <= 0 {
		return
	}
	st.snaps[ts]--
	if st.snaps[ts] == 0 {
		delete(st.snaps, ts)
	}
	sr.release(ts)
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

func (s *Server) handleConn(c net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()

	// Replies go out in request order: the reader enqueues one future per
	// request; the writer resolves them FIFO, so pipelining across epochs
	// and cache hits cannot reorder a connection's replies.
	futures := make(chan chan string, 2*queueDepth)
	var wWG sync.WaitGroup
	wWG.Add(1)
	go func() {
		defer wWG.Done()
		bw := bufio.NewWriter(c)
		for f := range futures {
			line := <-f
			bw.WriteString(line)
			bw.WriteByte('\n')
			// Flush when no more replies are immediately ready.
			if len(futures) == 0 {
				bw.Flush()
			}
		}
		bw.Flush()
	}()

	instant := func(line string) {
		f := make(chan string, 1)
		f <- line
		futures <- f
	}
	st := &connState{ver: 1}
	br := bufio.NewReaderSize(c, 4096)
	for {
		line, err := readLine(br)
		if errors.Is(err, errLineTooLong) {
			instant("ERR " + err.Error())
			continue
		}
		if err != nil {
			break
		}
		s.dispatch(string(line), st, instant, futures)
	}
	close(futures)
	wWG.Wait()
	st.releaseAll(s.snaps)
}

// readLine returns the next request line without its "\n" or "\r\n". Only
// newline-terminated lines are requests. A connection that dies mid-write
// (crash, reset) leaves a torn final line, and a torn prefix can parse as
// a VALID shorter request — e.g. a multi-key COMMIT cut after its first
// write — which would then execute under the full request's ID and absorb
// the client's retry into a lost update. So an unterminated tail is never
// returned: the read error is, and the client, which never saw an ack,
// re-sends the whole line on a fresh connection. A line longer than
// maxLine is consumed through its newline and reported as errLineTooLong.
func readLine(br *bufio.Reader) ([]byte, error) {
	b, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), b...)
		for err == bufio.ErrBufferFull {
			b, err = br.ReadSlice('\n')
			if len(long) <= maxLine {
				long = append(long, b...)
			}
		}
		b = long
	}
	if err != nil {
		return nil, err
	}
	if len(b) > maxLine {
		return nil, errLineTooLong
	}
	return bytes.TrimSuffix(b[:len(b)-1], []byte{'\r'}), nil
}

// dispatch answers one request line. HELLO and PING are answered before
// the draining gate; TXN, ABORT and snapshot reads are answered at the
// connection (snapshots are stable by construction, so they ride no
// epoch); SET, GET, DEL and write COMMITs go to their home shard's batcher
// for squash-staging, validation and exactly-once dedup, and their reply
// future joins the connection's ordered queue.
func (s *Server) dispatch(line string, st *connState, instant func(string), futures chan chan string) {
	r := new(request)
	if err := parseLine(line, st.ver, r); err != nil {
		instant(r.line("ERR " + err.Error()))
		return
	}
	switch r.op {
	case 'H':
		st.ver = int(r.val)
		instant(r.line(fmt.Sprintf("HELLO %d %d", r.val, len(s.workers))))
		return
	case 'P':
		instant(r.line("PONG"))
		return
	}
	if s.draining.Load() {
		instant(r.line("ERR server draining"))
		s.cRejected.Inc()
		return
	}
	switch r.op {
	case 'T':
		// A snapshot is the oracle's stable floor: every commit unit at or
		// below it has group-committed or rolled back. Registering it pins
		// the MVCC floor's watermark until the transaction ends.
		snap := s.snaps.begin(s.oracle)
		st.hold(snap)
		instant(r.line("BEGIN " + strconv.FormatUint(snap, 10)))
		return
	case 'A':
		st.end(r.snap, s.snaps)
		instant(r.line("ABORTED"))
		return
	case 'R':
		if r.snap > s.oracle.current() {
			instant(r.line("ERR invalid snapshot"))
			return
		}
		sh := s.shardFor(r.key).shard
		val, ok, tooOld := sh.mvcc.readAt(r.key, sh.SlotOf(r.key), r.snap)
		if tooOld {
			instant(r.line("ERR snapshot too old"))
		} else {
			instant(r.line(valueReply(val, ok)))
		}
		return
	case 'C':
		t := r.txn
		if len(t.keys) == 0 {
			// Read-only transaction: nothing to validate or persist; its
			// "commit timestamp" is the snapshot it read at.
			st.end(r.snap, s.snaps)
			instant(r.line("COMMITTED " + strconv.FormatUint(r.snap, 10)))
			return
		}
		if len(t.keys) > s.cfg.MaxBatch {
			instant(r.line(fmt.Sprintf("ERR transaction write set exceeds max batch (%d)", s.cfg.MaxBatch)))
			return
		}
		r.key = t.keys[0]
		for _, k := range t.keys[1:] {
			if s.shardFor(k) != s.shardFor(r.key) {
				instant(r.line("ERR transaction write set spans shards (keys must agree mod shard count)"))
				return
			}
		}
		// The registry hold protected this transaction's snapshot READS.
		// Conflict validation needs only each key's newest version
		// timestamp, which GC never trims, so the hold can go before the
		// verdict — a retried COMMIT (even from a fresh connection) still
		// validates correctly.
		st.end(r.snap, s.snaps)
		if !r.rid.Zero() {
			r.fpr = txnFingerprint(r.snap, t.keys, t.vals, t.dels)
		}
	default: // 'S', 'G', 'D'
		if !r.rid.Zero() {
			r.fpr = fingerprint(r.op, r.key, r.val)
		}
	}
	r.id = s.nextID.Add(1)
	r.enq = time.Now()
	r.done = make(chan string, 1)
	s.shardFor(r.key).reqs <- r
	futures <- r.done
}

// parseLine parses one request line into r: an optional "@<cid>.<seq>"
// prefix, then a verb and its arguments. ver is the connection's
// negotiated protocol version. r.rid is set as soon as the prefix parses,
// so an error reply can echo it. r.op is one of
//
//	'S' 'G' 'D'  SET, GET, DEL (key, and val for SET)
//	'P' 'H'      PING; HELLO (val = negotiated version)
//	'T' 'A' 'R'  TXN; ABORT, snapshot GET (snap, and key for GET)
//	'C'          COMMIT (snap, txn = write set)
func parseLine(line string, ver int, r *request) error {
	f := strings.Fields(line)
	if len(f) > 0 && strings.HasPrefix(f[0], "@") {
		cidS, seqS, ok := strings.Cut(f[0][1:], ".")
		if !ok {
			return errors.New("request id must be @<cid>.<seq>")
		}
		cid, err1 := strconv.ParseUint(cidS, 10, 64)
		seq, err2 := strconv.ParseUint(seqS, 10, 64)
		if err1 != nil || err2 != nil || cid == 0 || seq == 0 {
			return errors.New("request id parts must be decimal integers >= 1")
		}
		r.rid = ReqID{CID: cid, Seq: seq}
		f = f[1:]
	}
	if len(f) == 0 {
		return errors.New("empty request")
	}
	verb, args := strings.ToUpper(f[0]), f[1:]
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s takes %d argument(s)", verb, n)
		}
		return nil
	}
	var err error
	v2 := ver >= 2
	switch {
	case verb == "SET":
		r.op = 'S'
		if err = arity(2); err == nil {
			if r.key, err = parseKey(args[0]); err == nil {
				r.val, err = parseValue(args[1])
			}
		}
	case verb == "DEL":
		r.op = 'D'
		if err = arity(1); err == nil {
			r.key, err = parseKey(args[0])
		}
	case verb == "GET" && !v2:
		r.op = 'G'
		if err = arity(1); err == nil {
			r.key, err = parseKey(args[0])
		}
	case verb == "GET":
		r.op = 'G'
		if len(args) != 1 && len(args) != 2 {
			return errors.New("GET takes <key> [@<snap>]")
		}
		if r.key, err = parseKey(args[0]); err == nil && len(args) == 2 {
			r.op = 'R'
			snap, ok := strings.CutPrefix(args[1], "@")
			if !ok {
				return errors.New("GET snapshot must be @<snap>")
			}
			r.snap, err = parseSnap(snap)
		}
	case verb == "PING", verb == "TXN" && v2:
		r.op = verb[0]
		err = arity(0)
	case verb == "HELLO":
		r.op = 'H'
		if err = arity(1); err == nil {
			n, aerr := strconv.Atoi(args[0])
			if aerr != nil || n < 1 {
				return errors.New("protocol version must be >= 1")
			}
			r.val = uint64(min(n, maxProtoVersion))
		}
	case verb == "ABORT" && v2:
		r.op = 'A'
		if err = arity(1); err == nil {
			r.snap, err = parseSnap(args[0])
		}
	case verb == "COMMIT" && v2:
		r.op = 'C'
		err = parseCommit(args, r)
	default:
		return fmt.Errorf("unknown verb %q", f[0])
	}
	return err
}

// parseCommit parses COMMIT's arguments: the snapshot, then a write set of
// "S <key> <val>" and "D <key>" entries.
func parseCommit(args []string, r *request) error {
	if len(args) < 1 {
		return errors.New("COMMIT takes <snap> [S <key> <val> | D <key>]...")
	}
	var err error
	if r.snap, err = parseSnap(args[0]); err != nil {
		return err
	}
	t := &txnOp{}
	r.txn = t
	for i := 1; i < len(args); {
		var k, v uint64
		del := false
		switch strings.ToUpper(args[i]) {
		case "S":
			if i+3 > len(args) {
				return errors.New("COMMIT write S needs <key> <val>")
			}
			if k, err = parseKey(args[i+1]); err != nil {
				return err
			}
			if v, err = parseValue(args[i+2]); err != nil {
				return err
			}
			i += 3
		case "D":
			if i+2 > len(args) {
				return errors.New("COMMIT write D needs <key>")
			}
			if k, err = parseKey(args[i+1]); err != nil {
				return err
			}
			del = true
			i += 2
		default:
			return errors.New("COMMIT write must be S <key> <val> or D <key>")
		}
		t.keys = append(t.keys, k)
		t.vals = append(t.vals, v)
		t.dels = append(t.dels, del)
	}
	return nil
}

func parseKey(s string) (uint64, error) {
	k, err := strconv.ParseUint(s, 10, 64)
	if err != nil || k == 0 {
		return 0, errKey
	}
	return k, nil
}

func parseValue(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil || v == 0 {
		return 0, errValue
	}
	return v, nil
}

func parseSnap(s string) (uint64, error) {
	t, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, errSnap
	}
	return t, nil
}
