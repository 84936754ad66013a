package serve

import (
	"strings"
	"testing"
	"time"

	"github.com/gpm-sim/gpm/internal/workloads"
)

// The connections a wire row is sent on: one never negotiates past v1,
// the other upgrades to v2 with its first line.
const (
	onV1 = iota
	onV2
)

// wireRow is one request line and the exact reply the server must send.
type wireRow struct {
	conn       int
	line, want string
}

// wireRows pins the whole request grammar (DESIGN.md §11.1) as it is
// answered on a fresh 2-shard server with MaxBatch 4. Rows run in order, one
// round trip at a time, after the oracle has settled, so every BEGIN and
// COMMITTED timestamp is fixed: each plain SET/DEL and each write COMMIT
// draws the next one.
var wireRows = []wireRow{
	// v1: every verb, with and without a request ID.
	{onV1, "PING", "PONG"},
	{onV1, "@1.1 PING", "@1.1 PONG"},
	{onV1, "SET 1 10", "OK"},           // ts 1
	{onV1, "@1.2 SET 2 20", "@1.2 OK"}, // ts 2
	{onV1, "GET 1", "VALUE 10"},
	{onV1, "@1.3 GET 2", "@1.3 VALUE 20"},
	{onV1, "GET 3", "NOTFOUND"},
	{onV1, "DEL 1", "OK"},           // ts 3
	{onV1, "@1.4 DEL 2", "@1.4 OK"}, // ts 4
	{onV1, "GET 1", "NOTFOUND"},
	{onV1, "set 5 50", "OK"}, // ts 5; verbs are case-insensitive
	{onV1, "  GET   5  ", "VALUE 50"},
	{onV1, "GET 5\r", "VALUE 50"},
	{onV1, "@1.4 DEL 2", "@1.4 OK"}, // a retry replays its reply
	{onV1, "@1.4 DEL 4", "@1.4 ERR request id @1.4 already used with a different payload"},

	// v1: arity, key, value and prefix errors.
	{onV1, "", "ERR empty request"},
	{onV1, "   ", "ERR empty request"},
	{onV1, "BOGUS 1", `ERR unknown verb "BOGUS"`},
	{onV1, "SET", "ERR SET takes 2 argument(s)"},
	{onV1, "SET 1", "ERR SET takes 2 argument(s)"},
	{onV1, "SET 1 2 3", "ERR SET takes 2 argument(s)"},
	{onV1, "GET", "ERR GET takes 1 argument(s)"},
	{onV1, "GET 1 2", "ERR GET takes 1 argument(s)"},
	{onV1, "DEL", "ERR DEL takes 1 argument(s)"},
	{onV1, "DEL 1 2", "ERR DEL takes 1 argument(s)"},
	{onV1, "PING 1", "ERR PING takes 0 argument(s)"},
	{onV1, "SET x 1", "ERR key must be a decimal integer >= 1"},
	{onV1, "SET 0 5", "ERR key must be a decimal integer >= 1"},
	{onV1, "SET -1 5", "ERR key must be a decimal integer >= 1"},
	{onV1, "SET 18446744073709551616 5", "ERR key must be a decimal integer >= 1"},
	{onV1, "SET 0 x", "ERR key must be a decimal integer >= 1"},
	{onV1, "SET 1 x", "ERR value must be a decimal integer >= 1"},
	{onV1, "SET 1 0", "ERR value must be a decimal integer >= 1"},
	{onV1, "SET 1 -5", "ERR value must be a decimal integer >= 1"},
	{onV1, "GET x", "ERR key must be a decimal integer >= 1"},
	{onV1, "GET 0", "ERR key must be a decimal integer >= 1"},
	{onV1, "DEL 0", "ERR key must be a decimal integer >= 1"},
	{onV1, "@", "ERR request id must be @<cid>.<seq>"},
	{onV1, "@1 PING", "ERR request id must be @<cid>.<seq>"},
	{onV1, "@1.1.1 PING", "ERR request id parts must be decimal integers >= 1"},
	{onV1, "@x.1 PING", "ERR request id parts must be decimal integers >= 1"},
	{onV1, "@0.1 PING", "ERR request id parts must be decimal integers >= 1"},
	{onV1, "@1.0 PING", "ERR request id parts must be decimal integers >= 1"},
	{onV1, "@1. PING", "ERR request id parts must be decimal integers >= 1"},
	{onV1, "@.1 PING", "ERR request id parts must be decimal integers >= 1"},
	{onV1, "@1.5", "@1.5 ERR empty request"},
	{onV1, "@1.5 BOGUS", `@1.5 ERR unknown verb "BOGUS"`},
	{onV1, "@1.5 SET 0 1", "@1.5 ERR key must be a decimal integer >= 1"},
	{onV1, "@1.5 SET 1", "@1.5 ERR SET takes 2 argument(s)"},

	// v1 refuses the v2-only verbs.
	{onV1, "TXN", `ERR unknown verb "TXN"`},
	{onV1, "txn", `ERR unknown verb "txn"`},
	{onV1, "@1.5 TXN", `@1.5 ERR unknown verb "TXN"`},
	{onV1, "ABORT 1", `ERR unknown verb "ABORT"`},
	{onV1, "COMMIT 1", `ERR unknown verb "COMMIT"`},
	{onV1, "COMMIT 1 S 2 2", `ERR unknown verb "COMMIT"`},
	{onV1, "GET 1 @1", "ERR GET takes 1 argument(s)"},
	{onV1, "@1.5 GET 1 @1", "@1.5 ERR GET takes 1 argument(s)"},

	// HELLO that leaves the connection on v1.
	{onV1, "HELLO 0", "ERR protocol version must be >= 1"},
	{onV1, "HELLO x", "ERR protocol version must be >= 1"},
	{onV1, "HELLO -3", "ERR protocol version must be >= 1"},
	{onV1, "@1.5 HELLO 0", "@1.5 ERR protocol version must be >= 1"},
	{onV1, "HELLO 1", "HELLO 1 2"},
	{onV1, "hello 1", "HELLO 1 2"},
	{onV1, "HELLO", "ERR HELLO takes 1 argument(s)"},
	{onV1, "HELLO 1 2", "ERR HELLO takes 1 argument(s)"},
	{onV1, "TXN", `ERR unknown verb "TXN"`},

	// v2: negotiation, then every v1 verb unchanged.
	{onV2, "HELLO 2", "HELLO 2 2"},
	{onV2, "PING", "PONG"},
	{onV2, "@2.1 PING", "@2.1 PONG"},
	{onV2, "@2.1 HELLO 2", "@2.1 HELLO 2 2"},
	{onV2, "SET 6 60", "OK"},           // ts 6
	{onV2, "@2.2 SET 8 80", "@2.2 OK"}, // ts 7
	{onV2, "GET 6", "VALUE 60"},
	{onV2, "@2.3 GET 8", "@2.3 VALUE 80"},
	{onV2, "DEL 6", "OK"},           // ts 8
	{onV2, "@2.4 DEL 8", "@2.4 OK"}, // ts 9
	{onV2, "GET 8", "NOTFOUND"},

	// v2: transactions and snapshot reads.
	{onV2, "TXN", "BEGIN 9"},
	{onV2, "@2.5 TXN", "@2.5 BEGIN 9"},
	{onV2, "GET 5 @9", "VALUE 50"},
	{onV2, "@2.6 GET 6 @9", "@2.6 NOTFOUND"},
	{onV2, "GET 6 @7", "VALUE 60"},
	{onV2, "GET 2 @999999", "ERR invalid snapshot"},
	{onV2, "@2.7 GET 2 @999999", "@2.7 ERR invalid snapshot"},
	{onV2, "ABORT 9", "ABORTED"},
	{onV2, "@2.8 ABORT 9", "@2.8 ABORTED"},
	{onV2, "ABORT 12345", "ABORTED"},
	{onV2, "TXN", "BEGIN 9"},
	{onV2, "COMMIT 9", "COMMITTED 9"}, // read-only
	{onV2, "@2.9 COMMIT 9", "@2.9 COMMITTED 9"},
	{onV2, "TXN", "BEGIN 9"},
	{onV2, "@2.10 COMMIT 9 S 10 100 D 12", "@2.10 COMMITTED 10"}, // ts 10
	{onV2, "@2.10 COMMIT 9 S 10 100 D 12", "@2.10 COMMITTED 10"},
	{onV2, "GET 10", "VALUE 100"},
	{onV2, "TXN", "BEGIN 10"},
	{onV2, "COMMIT 10 s 14 140", "COMMITTED 11"}, // ts 11
	{onV2, "TXN", "BEGIN 11"},
	{onV1, "SET 14 141", "OK"}, // ts 12: a write after the snapshot
	{onV2, "COMMIT 11 S 14 142", "ABORT 14"},
	{onV2, "@2.11 COMMIT 11 d 14", "@2.11 ABORT 14"},
	{onV2, "COMMIT 12 S 1 1 S 2 2", "ERR transaction write set spans shards (keys must agree mod shard count)"},
	{onV2, "@2.12 COMMIT 12 S 1 1 S 2 2", "@2.12 ERR transaction write set spans shards (keys must agree mod shard count)"},
	{onV2, "COMMIT 12 S 2 1 S 4 1 S 6 1 S 8 1 S 10 1", "ERR transaction write set exceeds max batch (4)"},

	// v2: arity, key, value, snapshot and prefix errors.
	{onV2, "", "ERR empty request"},
	{onV2, "BOGUS", `ERR unknown verb "BOGUS"`},
	{onV2, "TXN 1", "ERR TXN takes 0 argument(s)"},
	{onV2, "PING 1", "ERR PING takes 0 argument(s)"},
	{onV2, "SET 1", "ERR SET takes 2 argument(s)"},
	{onV2, "SET 1 0", "ERR value must be a decimal integer >= 1"},
	{onV2, "DEL", "ERR DEL takes 1 argument(s)"},
	{onV2, "DEL x", "ERR key must be a decimal integer >= 1"},
	{onV2, "GET", "ERR GET takes <key> [@<snap>]"},
	{onV2, "GET 1 @2 3", "ERR GET takes <key> [@<snap>]"},
	{onV2, "GET 1 2", "ERR GET snapshot must be @<snap>"},
	{onV2, "GET 1 @x", "ERR snapshot must be a decimal integer"},
	{onV2, "GET 1 @", "ERR snapshot must be a decimal integer"},
	{onV2, "GET 0 @1", "ERR key must be a decimal integer >= 1"},
	{onV2, "GET x", "ERR key must be a decimal integer >= 1"},
	{onV2, "ABORT", "ERR ABORT takes 1 argument(s)"},
	{onV2, "ABORT 1 2", "ERR ABORT takes 1 argument(s)"},
	{onV2, "ABORT x", "ERR snapshot must be a decimal integer"},
	{onV2, "COMMIT", "ERR COMMIT takes <snap> [S <key> <val> | D <key>]..."},
	{onV2, "COMMIT x", "ERR snapshot must be a decimal integer"},
	{onV2, "COMMIT 1 S 2", "ERR COMMIT write S needs <key> <val>"},
	{onV2, "COMMIT 1 D", "ERR COMMIT write D needs <key>"},
	{onV2, "COMMIT 1 X 2", "ERR COMMIT write must be S <key> <val> or D <key>"},
	{onV2, "COMMIT 1 S 0 1", "ERR key must be a decimal integer >= 1"},
	{onV2, "COMMIT 1 S 2 0", "ERR value must be a decimal integer >= 1"},
	{onV2, "COMMIT 1 S 2 x", "ERR value must be a decimal integer >= 1"},
	{onV2, "COMMIT 1 D 0", "ERR key must be a decimal integer >= 1"},
	{onV2, "@2", "ERR request id must be @<cid>.<seq>"},
	{onV2, "@2.0 TXN", "ERR request id parts must be decimal integers >= 1"},
	{onV2, "@2.13 COMMIT 1 S 2", "@2.13 ERR COMMIT write S needs <key> <val>"},
	{onV2, "HELLO 0", "ERR protocol version must be >= 1"},
	{onV2, "HELLO x", "ERR protocol version must be >= 1"},

	// v2: downgrade to v1 and back.
	{onV2, "HELLO 99", "HELLO 2 2"},
	{onV2, "TXN", "BEGIN 12"},
	{onV2, "ABORT 12", "ABORTED"},
	{onV2, "HELLO 1", "HELLO 1 2"},
	{onV2, "TXN", `ERR unknown verb "TXN"`},
	{onV2, "GET 1 @1", "ERR GET takes 1 argument(s)"},
	{onV2, "HELLO 2", "HELLO 2 2"},
	{onV2, "TXN", "BEGIN 12"},
}

// drainRows run after Shutdown has begun: PING and HELLO are still
// answered, parse errors are still reported, and every other request is
// refused.
var drainRows = []wireRow{
	{onV1, "PING", "PONG"},
	{onV1, "@1.6 PING", "@1.6 PONG"},
	{onV1, "HELLO 1", "HELLO 1 2"},
	{onV1, "SET 1 1", "ERR server draining"},
	{onV1, "@1.6 GET 1", "@1.6 ERR server draining"},
	{onV1, "SET 0 1", "ERR key must be a decimal integer >= 1"},
	{onV1, "TXN", `ERR unknown verb "TXN"`},
	{onV2, "@2.14 HELLO 2", "@2.14 HELLO 2 2"},
	{onV2, "PING", "PONG"},
	{onV2, "TXN", "ERR server draining"},
	{onV2, "GET 1 @1", "ERR server draining"},
	{onV2, "ABORT 12", "ERR server draining"},
	{onV2, "COMMIT 12", "ERR server draining"},
	{onV2, "@2.15 COMMIT 12 S 2 2", "@2.15 ERR server draining"},
	{onV2, "GET 1 2", "ERR GET snapshot must be @<snap>"},
}

// TestWireGolden sends every row of the grammar table over real TCP and
// demands the exact reply, then drains the server and checks the rows a
// draining server still answers.
func TestWireGolden(t *testing.T) {
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 2, Sets: 64, MaxBatch: 4,
	})
	br1, c1 := dial(t, addr)
	defer c1.Close()
	br2, c2 := dial(t, addr)
	defer c2.Close()
	run := func(rows []wireRow) {
		for i, row := range rows {
			// Every timestamp a row drew must be stable before the next
			// row runs, or a BEGIN could see a floor one below its rows.
			deadline := time.Now().Add(5 * time.Second)
			for srv.oracle.snapshot() != srv.oracle.current() {
				if time.Now().After(deadline) {
					t.Fatalf("row %d: oracle never settled", i)
				}
				time.Sleep(100 * time.Microsecond)
			}
			var got string
			if row.conn == onV1 {
				got = roundTrip(t, c1, br1, row.line)
			} else {
				got = roundTrip(t, c2, br2, row.line)
			}
			if got != row.want {
				t.Errorf("row %d v%d %q -> %q, want %q", i, row.conn+1, row.line, got, row.want)
			}
		}
	}
	run(wireRows)

	done := make(chan struct{})
	go func() { srv.Shutdown(10 * time.Second); close(done) }()
	for !srv.Draining() {
		time.Sleep(100 * time.Microsecond)
	}
	run(drainRows)
	c1.Close()
	c2.Close()
	<-done
	assertExactlyOnce(t, srv)
}

// An oversized line gets one ERR and is skipped through its newline; the
// connection keeps serving. The bound is maxLine bytes, newline included.
func TestOversizedLineKeepsConnection(t *testing.T) {
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 8,
	})
	defer srv.Shutdown(5 * time.Second)
	br, c := dial(t, addr)
	defer c.Close()
	for _, row := range []struct{ line, want string }{
		{"SET 1 5", "OK"},
		{"GET " + strings.Repeat("1", 70000), "ERR request line exceeds 65536 bytes"},
		{"GET 1", "VALUE 5"},
		{"GET 1" + strings.Repeat(" ", maxLine-len("GET 1\n")), "VALUE 5"},
		{"GET 1" + strings.Repeat(" ", maxLine-len("GET 1\n")+1), "ERR request line exceeds 65536 bytes"},
		{"GET 1", "VALUE 5"},
	} {
		if got := roundTrip(t, c, br, row.line); got != row.want {
			t.Errorf("%.20q (%d bytes) -> %q, want %q", row.line, len(row.line), got, row.want)
		}
	}
}

// FuzzParseRequest checks the parser on arbitrary lines: it never panics,
// what it accepts is well-formed, and protocol v2 is a superset of v1 —
// a line v1 accepts parses the same under v2.
func FuzzParseRequest(f *testing.F) {
	for _, rows := range [][]wireRow{wireRows, drainRows} {
		for _, row := range rows {
			f.Add(row.line)
		}
	}
	// A HELLO with a zero ID part once negotiated instead of being refused.
	f.Add("@0.1 HELLO 2")
	f.Add("@1.0 HELLO 2")
	f.Fuzz(func(t *testing.T, line string) {
		var r1, r2 request
		err1 := parseLine(line, 1, &r1)
		err2 := parseLine(line, 2, &r2)
		for _, c := range []struct {
			r   *request
			err error
		}{{&r1, err1}, {&r2, err2}} {
			if c.err != nil {
				continue
			}
			r := c.r
			if strings.HasPrefix(strings.TrimSpace(line), "@") && (r.rid.CID == 0 || r.rid.Seq == 0) {
				t.Fatalf("%q: accepted request id %+v", line, r.rid)
			}
			switch r.op {
			case 'S':
				if r.key == 0 || r.val == 0 {
					t.Fatalf("%q: accepted SET %d %d", line, r.key, r.val)
				}
			case 'G', 'D', 'R':
				if r.key == 0 {
					t.Fatalf("%q: accepted key 0", line)
				}
			case 'C':
				for i, k := range r.txn.keys {
					if k == 0 || (!r.txn.dels[i] && r.txn.vals[i] == 0) {
						t.Fatalf("%q: accepted write %d: %d=%d", line, i, k, r.txn.vals[i])
					}
				}
			case 'H':
				if r.val < 1 || r.val > maxProtoVersion {
					t.Fatalf("%q: negotiated version %d", line, r.val)
				}
			}
		}
		if err1 == nil {
			if err2 != nil {
				t.Fatalf("%q: v1 accepts, v2 refuses: %v", line, err2)
			}
			if r1.op != r2.op || r1.key != r2.key || r1.val != r2.val || r1.rid != r2.rid {
				t.Fatalf("%q: v1 parsed %c %d %d %v, v2 %c %d %d %v",
					line, r1.op, r1.key, r1.val, r1.rid, r2.op, r2.key, r2.val, r2.rid)
			}
		}
	})
}
