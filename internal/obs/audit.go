package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// Audit event types, in the order a kill-and-recover cycle emits them.
const (
	AuditCrash   = "crash"   // power-fail injected (or observed) on a shard
	AuditRestart = "restart" // recovery ran: replay geometries, rollback, reload
	AuditVerify  = "verify"  // durable image compared against the committed oracle
	AuditDrain   = "drain"   // server began a graceful drain (SIGTERM et al.)
)

// AuditEvent is one structured entry in the recovery audit trail. Every
// event carries Seq/Time/Type/Shard; the remaining fields are populated
// per type (JSON omits the empties):
//
//	crash    Point, AtRisk, Detail
//	restart  TxSet, Geometries, SlotsRolledBack, RestoreUS
//	verify   Outcome ("ok"/"fail"), Err
//	drain    Detail (signal / reason)
type AuditEvent struct {
	Seq   uint64    `json:"seq"`
	Time  time.Time `json:"time"`
	Type  string    `json:"type"`
	Shard int       `json:"shard"`
	Mode  string    `json:"mode,omitempty"`

	Point           string  `json:"point,omitempty"`   // crash: pipeline crash point
	AtRisk          int     `json:"at_risk,omitempty"` // crash: store slots the batch writes
	TxSet           bool    `json:"tx_set"`            // restart: durable tx flag found set
	Geometries      []int   `json:"geoms,omitempty"`   // restart: HCL log grids replayed
	SlotsRolledBack int64   `json:"slots_rolled_back"` // restart: undo entries applied
	RestoreUS       float64 `json:"restore_us,omitempty"`

	Outcome string `json:"outcome,omitempty"` // verify: "ok" or "fail"
	Err     string `json:"err,omitempty"`
	Detail  string `json:"detail,omitempty"`

	// OracleHWM is the MVCC commit-timestamp high-water mark known durable
	// at a crash or recovered at a restart — the record that proves
	// timestamps never regress across a power failure.
	OracleHWM uint64 `json:"oracle_hwm,omitempty"`
}

// AuditLog is the crash/restart/replay event log: an in-memory ring (for
// /statusz and in-process assertions) plus an optional JSON-lines writer
// (one event per line, append-only — the queryable record a post-mortem
// reads). Record is safe for concurrent use; events get a monotonically
// increasing Seq so interleavings stay ordered in the file.
//
// Methods are nil-safe no-ops, so a shard holds a possibly-nil *AuditLog.
type AuditLog struct {
	mu     sync.Mutex
	events []AuditEvent // ring storage
	next   int
	n      int
	seq    uint64
	sink   io.Writer
	closer io.Closer
}

// DefaultAuditBuf bounds the in-memory audit ring.
const DefaultAuditBuf = 1024

// NewAuditLog returns an in-memory audit log retaining the last buf
// events (0 = DefaultAuditBuf).
func NewAuditLog(buf int) *AuditLog {
	if buf <= 0 {
		buf = DefaultAuditBuf
	}
	return &AuditLog{events: make([]AuditEvent, buf)}
}

// Attach streams every future event to w as JSON lines (in addition to
// the ring). Passing nil detaches.
func (l *AuditLog) Attach(w io.Writer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = w
	l.mu.Unlock()
}

// OpenFile attaches an append-mode JSONL file as the event sink; Close
// releases it.
func (l *AuditLog) OpenFile(path string) error {
	if l == nil {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.sink, l.closer = f, f
	l.mu.Unlock()
	return nil
}

// Close detaches and closes a file sink opened with OpenFile.
func (l *AuditLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	c := l.closer
	l.sink, l.closer = nil, nil
	l.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}

// syncer is what a file sink implements; Record fsyncs through it after
// crash and restart events.
type syncer interface{ Sync() error }

// Record stamps ev with the next sequence number and the current time
// (when unset), stores it in the ring, and writes one JSON line to the
// attached sink. Sink write errors are swallowed: the audit trail must
// never fail the serving or recovery path it is narrating. Crash and
// restart events are fsynced through a file sink before Record returns —
// those are exactly the entries a post-mortem needs, written at exactly
// the moments the process is least likely to exit cleanly.
func (l *AuditLog) Record(ev AuditEvent) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	ev.Seq = l.seq
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	l.events[l.next] = ev
	l.next = (l.next + 1) % len(l.events)
	if l.n < len(l.events) {
		l.n++
	}
	sink := l.sink
	var line []byte
	if sink != nil {
		line, _ = json.Marshal(ev)
	}
	l.mu.Unlock()
	if sink != nil && line != nil {
		sink.Write(append(line, '\n'))
		if ev.Type == AuditCrash || ev.Type == AuditRestart {
			if s, ok := sink.(syncer); ok {
				s.Sync()
			}
		}
	}
}

// ReadAuditJSONL reads an audit trail file written by a file sink. A torn
// final line — the partial write of a process that died mid-Record — is
// tolerated and reported via torn rather than failing the whole read; a
// malformed line anywhere else is real corruption and errors. Events are
// returned in file order.
func ReadAuditJSONL(path string) (events []AuditEvent, torn bool, err error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	lines := strings.Split(string(blob), "\n")
	for i, line := range lines {
		if line == "" {
			continue
		}
		var ev AuditEvent
		if uerr := json.Unmarshal([]byte(line), &ev); uerr != nil {
			tail := i == len(lines)-1
			for j := i + 1; j < len(lines); j++ {
				if lines[j] != "" {
					tail = false
				}
			}
			if tail {
				return events, true, nil
			}
			return events, false, fmt.Errorf("obs: audit line %d corrupt: %w", i+1, uerr)
		}
		events = append(events, ev)
	}
	return events, false, nil
}

// Events returns the retained events, oldest first.
func (l *AuditLog) Events() []AuditEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]AuditEvent, 0, l.n)
	start := l.next - l.n
	if start < 0 {
		start += len(l.events)
	}
	for i := 0; i < l.n; i++ {
		out = append(out, l.events[(start+i)%len(l.events)])
	}
	return out
}

// Tail returns up to n of the newest events, oldest of those first.
func (l *AuditLog) Tail(n int) []AuditEvent {
	evs := l.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Len returns the number of retained events.
func (l *AuditLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}
