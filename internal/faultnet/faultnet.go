// Package faultnet is the network analogue of pmem.FaultModel: a
// schedule-driven fault-injecting net.Conn and dialer wrapper
// whose fault placement is a pure function of (seed, schedule, connection
// index, operation index). The same (seed, schedule) pair always produces
// byte-identical fault placement on a given connection stream — injected
// latency, read stalls, partial writes, mid-write connection resets, and
// duplicate delivery of complete protocol lines — so a chaos run that
// breaks the serving stack is replayable from its tuple alone.
//
// Wrappers never reorder or corrupt delivered bytes: every fault is one a
// correct TCP application must already survive (slowness, a torn final
// line at a reset, a retransmitted request line). Anything stronger —
// silent corruption, reordering within a stream — would be a bug in the
// transport, not in the application under test, and is out of scope.
package faultnet

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gpm-sim/gpm/internal/sim"
)

// ErrInjectedReset is returned from Read/Write on a connection the
// schedule reset. The peer observes a plain close (EOF / write error).
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// Schedule parameterizes deterministic fault placement on one wrapped
// connection. Zero values disable each fault class; the zero Schedule is a
// transparent pass-through. Strides count per-connection operations
// (writes for write-side faults, reads for stalls), so placement never
// depends on wall time or scheduling.
type Schedule struct {
	Name string `json:"name"`

	// LatencyEvery injects Latency before every Nth Write (1 = every write).
	LatencyEvery int64         `json:"latency_every,omitempty"`
	Latency      time.Duration `json:"latency,omitempty"`

	// StallEvery injects Stall before every Nth Read.
	StallEvery int64         `json:"stall_every,omitempty"`
	Stall      time.Duration `json:"stall,omitempty"`

	// PartialEvery splits every Nth Write at an RNG-drawn offset, delivering
	// the two halves with PartialPause between them (a torn TCP segment).
	PartialEvery int64         `json:"partial_every,omitempty"`
	PartialPause time.Duration `json:"partial_pause,omitempty"`

	// ResetProb is the per-connection probability that a mid-write reset
	// fires at all; when it does, the write index is drawn uniformly from
	// [ResetAfterMin, ResetAfterMax] and that write delivers only an
	// RNG-drawn prefix before the connection closes in both directions.
	ResetProb     float64 `json:"reset_prob,omitempty"`
	ResetAfterMin int64   `json:"reset_after_min,omitempty"`
	ResetAfterMax int64   `json:"reset_after_max,omitempty"`

	// DupEvery delivers every Nth complete written line twice (the network
	// analogue of a retransmitted request). When set, the wrapper becomes
	// line-buffered: bytes after the last '\n' of a Write are held until
	// their line completes, so duplication can never tear a line.
	DupEvery int64 `json:"dup_every,omitempty"`
}

// Active reports whether the schedule injects anything at all.
func (s Schedule) Active() bool {
	return s.LatencyEvery > 0 || s.StallEvery > 0 || s.PartialEvery > 0 ||
		s.ResetProb > 0 || s.DupEvery > 0
}

// Built-in schedules, ordered mildest to nastiest. Timing faults are kept
// small (hundreds of microseconds) so chaos campaigns stay fast; the
// correctness-relevant faults are the resets and duplicates.
func builtinSchedules() []Schedule {
	return []Schedule{
		{Name: "clean"},
		{
			Name:         "slow",
			LatencyEvery: 7, Latency: 200 * time.Microsecond,
			StallEvery: 5, Stall: 300 * time.Microsecond,
			PartialEvery: 3, PartialPause: 50 * time.Microsecond,
		},
		{
			Name:      "flaky",
			ResetProb: 0.7, ResetAfterMin: 4, ResetAfterMax: 24,
			PartialEvery: 4, PartialPause: 50 * time.Microsecond,
		},
		{
			Name:       "dup",
			DupEvery:   3,
			StallEvery: 9, Stall: 100 * time.Microsecond,
		},
		{
			Name:         "chaos",
			LatencyEvery: 11, Latency: 150 * time.Microsecond,
			StallEvery: 7, Stall: 150 * time.Microsecond,
			PartialEvery: 5, PartialPause: 30 * time.Microsecond,
			ResetProb: 0.5, ResetAfterMin: 8, ResetAfterMax: 40,
			DupEvery: 5,
		},
	}
}

// Schedules returns the built-in schedule set (clean, slow, flaky, dup,
// chaos), the sweep axis chaos campaigns iterate.
func Schedules() []Schedule { return builtinSchedules() }

// ScheduleNames lists the built-in schedule names, for CLI usage strings.
func ScheduleNames() []string {
	var names []string
	for _, s := range builtinSchedules() {
		names = append(names, s.Name)
	}
	return names
}

// ScheduleByName resolves a built-in schedule.
func ScheduleByName(name string) (Schedule, error) {
	var valid []string
	for _, s := range builtinSchedules() {
		if s.Name == name {
			return s, nil
		}
		valid = append(valid, s.Name)
	}
	return Schedule{}, fmt.Errorf("faultnet: unknown schedule %q (valid: %s)", name, strings.Join(valid, ", "))
}

// Fault is one recorded injection, for determinism assertions: the op
// index it fired at and an argument pinning its placement (split offset,
// delivered prefix length, duplicated line index).
type Fault struct {
	Op    string // "write" or "read"
	Index int64  // 1-based op index within the connection direction
	Kind  string // "latency", "stall", "partial", "reset", "dup"
	Arg   int64
}

// Stats aggregates injected faults across every connection of one Dialer. All fields are atomics; read with the getters.
type Stats struct {
	conns, resets, dups, partials, stalls, latencies atomic.Int64
}

// Conns returns connections wrapped.
func (s *Stats) Conns() int64 { return s.conns.Load() }

// Resets returns injected connection resets.
func (s *Stats) Resets() int64 { return s.resets.Load() }

// Dups returns duplicated lines delivered.
func (s *Stats) Dups() int64 { return s.dups.Load() }

// Partials returns split writes.
func (s *Stats) Partials() int64 { return s.partials.Load() }

// Stalls returns injected read stalls.
func (s *Stats) Stalls() int64 { return s.stalls.Load() }

// Latencies returns injected write delays.
func (s *Stats) Latencies() int64 { return s.latencies.Load() }

// Conn wraps a net.Conn with schedule-driven faults. The write path and
// read path each keep their own op counter and may be driven from one
// goroutine each (the usual reader/writer split); the fault trace is
// internally locked.
type Conn struct {
	net.Conn
	sched Schedule
	stats *Stats

	writeIdx atomic.Int64
	readIdx  atomic.Int64
	resetAt  int64 // write index the reset fires at; 0 = never
	rmu      sync.Mutex
	wrng     *sim.RNG // write-side draws (split offsets, reset prefix); private to the connection
	lbuf     []byte
	lineIdx  int64
	isReset  atomic.Bool

	fmu    sync.Mutex
	faults []Fault
}

// Wrap places sched on c. connID selects the connection's deterministic
// fault stream: the same (seed, sched, connID) always yields the same
// placement, independent of timing, GOMAXPROCS, or other connections.
func Wrap(c net.Conn, sched Schedule, seed, connID uint64, stats *Stats) *Conn {
	fc := &Conn{Conn: c, sched: sched, stats: stats}
	fc.wrng = sim.NewRNG(sim.Mix64(seed ^ sim.Mix64(connID+0x6a09e667f3bcc909)))
	if sched.ResetProb > 0 && fc.wrng.Float64() < sched.ResetProb {
		lo, hi := sched.ResetAfterMin, sched.ResetAfterMax
		if lo < 1 {
			lo = 1
		}
		if hi < lo {
			hi = lo
		}
		fc.resetAt = lo + fc.wrng.Int63n(hi-lo+1)
	}
	if stats != nil {
		stats.conns.Add(1)
	}
	return fc
}

func (c *Conn) record(f Fault) {
	c.fmu.Lock()
	c.faults = append(c.faults, f)
	c.fmu.Unlock()
}

// Faults returns a copy of the injection trace, in op order per direction.
func (c *Conn) Faults() []Fault {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	out := make([]Fault, len(c.faults))
	copy(out, c.faults)
	return out
}

// Read passes through with scheduled stalls.
func (c *Conn) Read(p []byte) (int, error) {
	if c.isReset.Load() {
		return 0, ErrInjectedReset
	}
	idx := c.readIdx.Add(1)
	if e := c.sched.StallEvery; e > 0 && idx%e == 0 {
		c.record(Fault{Op: "read", Index: idx, Kind: "stall", Arg: int64(c.sched.Stall)})
		if c.stats != nil {
			c.stats.stalls.Add(1)
		}
		time.Sleep(c.sched.Stall)
	}
	return c.Conn.Read(p)
}

// Write delivers p through the fault pipeline: latency, line duplication,
// a scheduled mid-write reset (prefix delivered, then close), or a split
// write. The returned count is the bytes of p consumed — all of them on
// any injected-fault path, so buffered writers above see ordinary
// semantics until a reset error surfaces.
func (c *Conn) Write(p []byte) (int, error) {
	if c.isReset.Load() {
		return 0, ErrInjectedReset
	}
	idx := c.writeIdx.Add(1)
	if e := c.sched.LatencyEvery; e > 0 && idx%e == 0 {
		c.record(Fault{Op: "write", Index: idx, Kind: "latency", Arg: int64(c.sched.Latency)})
		if c.stats != nil {
			c.stats.latencies.Add(1)
		}
		time.Sleep(c.sched.Latency)
	}

	emit := p
	if c.sched.DupEvery > 0 {
		emit = c.dupLines(idx, p)
		if emit == nil {
			return len(p), nil // incomplete line buffered; nothing on the wire yet
		}
	}

	if c.resetAt != 0 && idx >= c.resetAt {
		cut := c.wrng.Int63n(int64(len(emit)) + 1)
		if cut > 0 {
			c.Conn.Write(emit[:cut])
		}
		c.record(Fault{Op: "write", Index: idx, Kind: "reset", Arg: cut})
		if c.stats != nil {
			c.stats.resets.Add(1)
		}
		c.isReset.Store(true)
		c.Conn.Close()
		return len(p), ErrInjectedReset
	}

	if e := c.sched.PartialEvery; e > 0 && idx%e == 0 && len(emit) > 1 {
		cut := 1 + c.wrng.Int63n(int64(len(emit)-1))
		c.record(Fault{Op: "write", Index: idx, Kind: "partial", Arg: cut})
		if c.stats != nil {
			c.stats.partials.Add(1)
		}
		if _, err := c.Conn.Write(emit[:cut]); err != nil {
			return 0, err
		}
		time.Sleep(c.sched.PartialPause)
		if _, err := c.Conn.Write(emit[cut:]); err != nil {
			return 0, err
		}
		return len(p), nil
	}

	if _, err := c.Conn.Write(emit); err != nil {
		return 0, err
	}
	return len(p), nil
}

// dupLines folds p into the line buffer and returns the bytes to emit for
// this Write: every complete line once, except each DupEvery-th line of
// the connection, which is emitted twice. Returns nil when no line
// completed (the tail stays buffered).
func (c *Conn) dupLines(writeIdx int64, p []byte) []byte {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	c.lbuf = append(c.lbuf, p...)
	var out []byte
	for {
		nl := -1
		for i, b := range c.lbuf {
			if b == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			break
		}
		line := c.lbuf[:nl+1]
		c.lineIdx++
		out = append(out, line...)
		if c.lineIdx%c.sched.DupEvery == 0 {
			out = append(out, line...)
			c.record(Fault{Op: "write", Index: writeIdx, Kind: "dup", Arg: c.lineIdx})
			if c.stats != nil {
				c.stats.dups.Add(1)
			}
		}
		c.lbuf = append(c.lbuf[:0], c.lbuf[nl+1:]...)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Dialer wraps a dial function so every outbound connection carries the
// schedule; connection IDs are assigned in dial order.
type Dialer struct {
	dial   func() (net.Conn, error)
	sched  Schedule
	seed   uint64
	nextID atomic.Uint64
	stats  Stats
}

// NewDialer wraps dial with sched. A nil-schedule dialer is transparent.
func NewDialer(dial func() (net.Conn, error), sched Schedule, seed uint64) *Dialer {
	return &Dialer{dial: dial, sched: sched, seed: seed}
}

// Dial opens one wrapped connection.
func (d *Dialer) Dial() (net.Conn, error) {
	c, err := d.dial()
	if err != nil {
		return nil, err
	}
	if !d.sched.Active() {
		return c, nil
	}
	return Wrap(c, d.sched, d.seed, d.nextID.Add(1), &d.stats), nil
}

// Stats exposes the dialer's aggregate injection counters.
func (d *Dialer) Stats() *Stats { return &d.stats }
