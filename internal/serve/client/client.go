// Package client is the first-class line-protocol client for gpmserve: one
// connection, pipelined request futures, optional protocol-v2 negotiation
// with snapshot-isolation transactions, and an optional reliable mode in
// which every request carries an exactly-once "@<cid>.<seq>" identity and
// transport failures (or server RETRY verdicts after a crash-restart)
// resend the request — reconnecting with capped exponential backoff plus
// jitter — until it resolves or the attempt budget is spent.
//
// The client is deliberately synchronous: it owns no goroutines, and it is
// NOT safe for concurrent use. Requests buffer until Flush (or until a
// Wait needs the wire), so a closed-loop driver keeps a window pipelined
// by issuing futures and waiting on the oldest. Replies resolve futures
// positionally (plain mode) or by identity (reliable mode) during Wait.
package client

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/gpm-sim/gpm/internal/sim"
)

// MaxProto is the newest wire protocol this package speaks.
const MaxProto = 2

// ErrGaveUp resolves a reliable-mode future whose request spent its retry
// budget without a verdict: the outcome is UNKNOWN (the server-side dedup
// window exists precisely to absorb a later retry of the same identity).
var ErrGaveUp = errors.New("client: request abandoned after retry budget")

// Config describes one connection.
type Config struct {
	Addr string                   // TCP target (ignored when Dial is set)
	Dial func() (net.Conn, error) // custom transport (in-memory pipes, fault injectors)

	Timeout time.Duration // dial/IO deadline per connection (0 = 30s)

	// Proto is the wire protocol to request via HELLO at connect: 2
	// negotiates transactions and snapshot reads; 0 or 1 sends NO HELLO at
	// all — the byte stream is exactly the legacy v1 client's.
	Proto int

	// Reliable switches every request to the exactly-once identity form.
	// CID must be a nonzero client ID, unique among concurrent clients.
	Reliable     bool
	CID          uint64
	MaxRetries   int           // resend attempts per op and per reconnect (0 = 8)
	RetryBackoff time.Duration // backoff base; doubles per attempt, capped (0 = 2ms)
	Seed         uint64        // backoff jitter seed (mixed with CID)

	// OnRetry/OnReconnect, when set, observe each resend / transport
	// reconnect as it happens (live progress reporting).
	OnRetry     func()
	OnReconnect func()
}

func (c *Config) normalize() error {
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.Proto == 0 {
		c.Proto = 1
	}
	if c.Addr == "" && c.Dial == nil {
		return errors.New("client: no address and no dialer")
	}
	if c.Proto < 1 || c.Proto > MaxProto {
		return fmt.Errorf("client: protocol %d out of range [1, %d]", c.Proto, MaxProto)
	}
	if c.Reliable && c.CID == 0 {
		return errors.New("client: reliable mode needs a nonzero CID")
	}
	return nil
}

// Stats are the connection's transport tallies so far.
type Stats struct {
	Retries    int64 // resends of already-sent requests
	Reconnects int64 // transport reconnects
	GaveUp     int64 // futures resolved ErrGaveUp
}

// Future is one in-flight request. It resolves during some Wait call on
// its client; Done/Body/Err/RTT are meaningful only after resolution.
type Future struct {
	line     string // full wire line including newline (resend form)
	seq      uint64 // reliable-mode sequence (0 in plain mode)
	start    time.Time
	attempts int

	done bool
	body string // reply body, identity prefix stripped, trimmed
	err  error
	rtt  time.Duration
}

// Done reports whether the future has resolved.
func (f *Future) Done() bool { return f.done }

// RTT is the request→reply wall time (first send to resolution).
func (f *Future) RTT() time.Duration { return f.rtt }

// Client is one line-protocol connection. Not safe for concurrent use.
type Client struct {
	cfg    Config
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	ver    int // negotiated protocol (1 when no HELLO was sent)
	shards int // server shard count from HELLO (0 in v1)

	seq         uint64
	queue       []*Future          // plain mode: FIFO positional matching
	outstanding map[uint64]*Future // reliable mode: identity matching

	jit   *sim.RNG
	stats Stats
	fatal error
	clsd  bool
}

// Dial connects and (for Proto >= 2) negotiates the protocol version.
func Dial(cfg Config) (*Client, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	c := &Client{
		cfg: cfg,
		ver: 1,
		jit: sim.NewRNG(sim.Mix64(cfg.Seed^cfg.CID*0xa24baed4963ee407) | 1),
	}
	if cfg.Reliable {
		c.outstanding = make(map[uint64]*Future)
	}
	if err := c.connect(true); err != nil {
		return nil, err
	}
	return c, nil
}

// Proto is the negotiated protocol version.
func (c *Client) Proto() int { return c.ver }

// Shards is the server's shard count (HELLO reply; 0 on a v1 connection).
// Transaction write sets must stay on one shard: keys agreeing mod Shards.
func (c *Client) Shards() int { return c.shards }

// Stats returns the transport tallies so far.
func (c *Client) Stats() Stats { return c.stats }

// Close tears the connection down. Unresolved futures stay unresolved.
func (c *Client) Close() error {
	c.clsd = true
	if c.conn != nil {
		return c.conn.Close()
	}
	return nil
}

// dial opens the raw transport.
func (c *Client) dial() (net.Conn, error) {
	if c.cfg.Dial != nil {
		return c.cfg.Dial()
	}
	return net.DialTimeout("tcp", c.cfg.Addr, c.cfg.Timeout)
}

func (c *Client) backoff(attempt int) {
	d := c.cfg.RetryBackoff << uint(attempt)
	if cap := 64 * c.cfg.RetryBackoff; d > cap {
		d = cap
	}
	time.Sleep(d/2 + time.Duration(c.jit.Uint64()%uint64(d))) // [0.5d, 1.5d)
}

// connect (re)builds the transport: dial with backoff, reset the deadline,
// renegotiate the protocol, and — in reliable mode — resend every
// outstanding request lowest seq first (the server's per-client ordering
// contract wants old seqs before new ones). Plain mode cannot reconnect:
// positional matching does not survive a severed stream.
func (c *Client) connect(initial bool) error {
	if !initial {
		if !c.cfg.Reliable {
			return errors.New("client: connection lost (plain mode cannot reconnect)")
		}
		c.stats.Reconnects++
		if c.cfg.OnReconnect != nil {
			c.cfg.OnReconnect()
		}
	}
	for attempt := 0; ; attempt++ {
		if c.conn != nil {
			c.conn.Close()
			c.conn = nil
		}
		conn, err := c.dial()
		if err != nil {
			if attempt >= c.cfg.MaxRetries {
				return err
			}
			c.backoff(attempt)
			continue
		}
		c.conn = conn
		c.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true) // pipelined small writes; avoid Nagle stalls
		}
		c.br, c.bw = bufio.NewReader(conn), bufio.NewWriter(conn)
		if err := c.negotiate(); err != nil {
			if attempt >= c.cfg.MaxRetries {
				return err
			}
			c.backoff(attempt)
			continue
		}
		if initial {
			return nil
		}
		if err := c.resendOutstanding(); err != nil {
			if attempt >= c.cfg.MaxRetries {
				return fmt.Errorf("client: resend after reconnect failed: %w", err)
			}
			c.backoff(attempt)
			continue
		}
		return nil
	}
}

// negotiate runs the HELLO exchange when the config asks for v2+. The
// exchange is synchronous — nothing else is in flight on a fresh
// connection — so the reply can be read inline.
func (c *Client) negotiate() error {
	if c.cfg.Proto < 2 {
		c.ver = 1
		return nil
	}
	if _, err := fmt.Fprintf(c.bw, "HELLO %d\n", c.cfg.Proto); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	line, err := c.br.ReadString('\n')
	if err != nil {
		return err
	}
	fields := strings.Fields(line)
	if len(fields) != 3 || fields[0] != "HELLO" {
		return fmt.Errorf("client: bad HELLO reply %q", strings.TrimSpace(line))
	}
	ver, err1 := strconv.Atoi(fields[1])
	shards, err2 := strconv.Atoi(fields[2])
	if err1 != nil || err2 != nil || ver < 1 {
		return fmt.Errorf("client: bad HELLO reply %q", strings.TrimSpace(line))
	}
	c.ver, c.shards = ver, shards
	return nil
}

// resendOutstanding replays every unresolved identified request in seq
// order, charging one attempt each and abandoning the over-budget ones.
func (c *Client) resendOutstanding() error {
	seqs := make([]uint64, 0, len(c.outstanding))
	for s := range c.outstanding {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		f := c.outstanding[s]
		if c.giveUpOrBump(f) {
			continue
		}
		c.stats.Retries++
		if c.cfg.OnRetry != nil {
			c.cfg.OnRetry()
		}
		if _, err := c.bw.WriteString(f.line); err != nil {
			return err
		}
	}
	return c.bw.Flush()
}

// giveUpOrBump charges one attempt against f, resolving it ErrGaveUp once
// the budget is spent. Reports true when the future was abandoned.
func (c *Client) giveUpOrBump(f *Future) bool {
	if f.attempts >= c.cfg.MaxRetries {
		c.resolve(f, "", ErrGaveUp)
		c.stats.GaveUp++
		return true
	}
	f.attempts++
	return false
}

func (c *Client) resolve(f *Future, body string, err error) {
	f.done, f.body, f.err = true, body, err
	f.rtt = time.Since(f.start)
	if f.seq != 0 {
		delete(c.outstanding, f.seq)
	}
}

// submit issues one request body (no identity, no newline) as a future.
func (c *Client) submit(body string) (*Future, error) {
	if c.fatal != nil {
		return nil, c.fatal
	}
	if c.clsd {
		return nil, errors.New("client: closed")
	}
	f := &Future{start: time.Now()}
	if c.cfg.Reliable {
		c.seq++
		f.seq = c.seq
		f.line = fmt.Sprintf("@%d.%d %s\n", c.cfg.CID, f.seq, body)
		c.outstanding[f.seq] = f
	} else {
		f.line = body + "\n"
		c.queue = append(c.queue, f)
	}
	if _, err := c.bw.WriteString(f.line); err != nil {
		if rerr := c.connect(false); rerr != nil {
			c.fail(rerr)
			return nil, rerr
		}
	}
	return f, nil
}

// fail poisons the client: every unresolved future resolves with err and
// further submissions refuse.
func (c *Client) fail(err error) {
	c.fatal = err
	for _, f := range c.queue {
		if !f.done {
			c.resolve(f, "", err)
		}
	}
	c.queue = nil
	for _, f := range c.outstanding {
		c.resolve(f, "", err)
	}
}

// Flush pushes buffered requests to the wire.
func (c *Client) Flush() error {
	if c.fatal != nil {
		return c.fatal
	}
	if err := c.bw.Flush(); err != nil {
		if rerr := c.connect(false); rerr != nil {
			c.fail(rerr)
			return rerr
		}
	}
	return nil
}

// Wait pumps the connection until f resolves, resolving any other futures
// whose replies arrive first along the way.
func (c *Client) Wait(f *Future) (string, error) {
	for !f.done {
		if err := c.pump(); err != nil {
			return "", err
		}
	}
	return f.body, f.err
}

// pump flushes pending writes, blocks for one reply line, then drains
// every complete reply already buffered — the server writes replies a
// batch at a time, so taking them one-per-read would forfeit pipelining.
func (c *Client) pump() error {
	if err := c.Flush(); err != nil {
		return err
	}
	raw, err := c.br.ReadString('\n')
	if err != nil {
		if rerr := c.connect(false); rerr != nil {
			c.fail(rerr)
			return rerr
		}
		return nil
	}
	if err := c.handleReply(raw); err != nil {
		return err
	}
	for {
		n := c.br.Buffered()
		if n == 0 {
			return nil
		}
		peek, _ := c.br.Peek(n)
		if bytes.IndexByte(peek, '\n') < 0 {
			return nil
		}
		raw, err := c.br.ReadString('\n')
		if err != nil {
			return nil // cannot happen with a whole buffered line; be safe
		}
		if err := c.handleReply(raw); err != nil {
			return err
		}
	}
}

// handleReply resolves one reply line against the in-flight futures.
func (c *Client) handleReply(raw string) error {
	line := strings.TrimSpace(raw)
	if !c.cfg.Reliable {
		if len(c.queue) == 0 {
			return nil // stray line on a plain connection
		}
		f := c.queue[0]
		c.queue = c.queue[1:]
		c.resolve(f, line, nil)
		return nil
	}
	if !strings.HasPrefix(line, "@") {
		return nil // unidentified line: not one of ours
	}
	idTok, body, ok := strings.Cut(line[1:], " ")
	if !ok {
		return nil
	}
	cidS, seqS, ok := strings.Cut(idTok, ".")
	if !ok {
		return nil
	}
	rcid, err1 := strconv.ParseUint(cidS, 10, 64)
	rseq, err2 := strconv.ParseUint(seqS, 10, 64)
	if err1 != nil || err2 != nil || rcid != c.cfg.CID {
		return nil
	}
	f, live := c.outstanding[rseq]
	if !live || f.done {
		return nil // duplicate delivery of an already-resolved reply
	}
	if body == "RETRY" {
		// Crash-restart severed the ack; resend the identical request after
		// a beat and let the server-side dedup sort it out.
		if c.giveUpOrBump(f) {
			return nil
		}
		c.stats.Retries++
		if c.cfg.OnRetry != nil {
			c.cfg.OnRetry()
		}
		time.Sleep(c.cfg.RetryBackoff)
		if _, err := c.bw.WriteString(f.line); err != nil {
			if rerr := c.connect(false); rerr != nil {
				c.fail(rerr)
				return rerr
			}
		}
		return nil
	}
	c.resolve(f, body, nil)
	return nil
}

// --- request surface ---

// Get issues a plain GET (newest committed value).
func (c *Client) Get(key uint64) (*Future, error) {
	return c.submit("GET " + strconv.FormatUint(key, 10))
}

// Set issues a SET.
func (c *Client) Set(key, val uint64) (*Future, error) {
	return c.submit("SET " + strconv.FormatUint(key, 10) + " " + strconv.FormatUint(val, 10))
}

// Del issues a DEL.
func (c *Client) Del(key uint64) (*Future, error) {
	return c.submit("DEL " + strconv.FormatUint(key, 10))
}

// Ping issues a PING.
func (c *Client) Ping() (*Future, error) { return c.submit("PING") }

// Reply classification helpers for raw future bodies.

// IsValue parses a "VALUE <v>" body.
func IsValue(body string) (uint64, bool) {
	rest, ok := strings.CutPrefix(body, "VALUE ")
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(rest, 10, 64)
	return v, err == nil
}

// IsErr reports an "ERR ..." body.
func IsErr(body string) bool { return strings.HasPrefix(body, "ERR") }
