package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"
)

// opFunc yields operation i of a connection's schedule: the op kind, the
// index of its key in the connection's key list, and the SET value.
type opFunc func(i uint64) (kind opKind, idx int, val uint64)

// pending is what the reader needs to judge one reply: when the request
// counted as issued and what the server must answer.
type pending struct {
	t0   time.Time // send instant (closed loop) or due instant (open loop)
	kind opKind
	want uint64 // GET: the value the model holds, 0 = NOTFOUND
}

// conn is one benchmark connection speaking wire protocol v1 over a raw
// socket: a writer goroutine encodes requests into a reused buffer and a
// reader goroutine matches replies FIFO, so nothing is allocated per
// operation in steady state. The connection owns its keys exclusively,
// which makes every reply exactly checkable against model.
type conn struct {
	c     net.Conn
	bw    *bufio.Writer
	br    *bufio.Reader
	keys  []uint64
	model []uint64 // by key index: value the server must hold, 0 = absent
	buf   []byte
	lat   []int64 // ns per reply, this trial
	lag   []int64 // ns the generator ran late per request, open loop only

	sent, failed int64 // cumulative over the connection's life
	firstBad     string
}

const latCap = 1 << 20

func dialConn(addr string, keys []uint64) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // small lines: Nagle + delayed ACK would add ~40 ms
	}
	return &conn{
		c: c, bw: bufio.NewWriterSize(c, 1<<16), br: bufio.NewReaderSize(c, 1<<16),
		keys: keys, model: make([]uint64, len(keys)),
		buf: make([]byte, 0, 64), lat: make([]int64, 0, latCap), lag: make([]int64, 0, latCap),
	}, nil
}

// issue applies op to the model, encodes it and returns what the reply
// must be.
func (c *conn) issue(kind opKind, idx int, val uint64) pending {
	p := pending{kind: kind}
	switch kind {
	case opSet:
		c.model[idx] = val
	case opDel:
		c.model[idx] = 0
	case opGet:
		p.want = c.model[idx]
	}
	c.buf = appendRequest(c.buf[:0], kind, c.keys[idx], val)
	c.bw.Write(c.buf) // a write error surfaces at the reader as a transport failure
	c.sent++
	return p
}

var (
	replyOK       = []byte("OK")
	replyNotFound = []byte("NOTFOUND")
	replyValue    = []byte("VALUE ")
)

// replyMatches reports whether line is the reply p demands.
func replyMatches(line []byte, p pending) bool {
	line = bytes.TrimRight(line, "\r\n")
	if p.kind != opGet {
		return bytes.Equal(line, replyOK)
	}
	if p.want == 0 {
		return bytes.Equal(line, replyNotFound)
	}
	rest, ok := bytes.CutPrefix(line, replyValue)
	if !ok || len(rest) == 0 {
		return false
	}
	var v uint64
	for _, d := range rest {
		if d < '0' || d > '9' {
			return false
		}
		v = v*10 + uint64(d-'0')
	}
	return v == p.want
}

// read consumes one reply per pending request, in order. After a transport
// error every remaining request counts as failed. free, when non-nil,
// receives one credit per reply (the closed loop's window).
func (c *conn) read(inflight <-chan pending, free chan<- struct{}) {
	broken := false
	for p := range inflight {
		ok := false
		if !broken {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				broken = true
				c.bad(fmt.Sprintf("transport: %v", err))
			} else if ok = replyMatches(line, p); !ok {
				c.bad(fmt.Sprintf("wrong reply %q", bytes.TrimRight(line, "\r\n")))
			}
		}
		if ok {
			c.lat = append(c.lat, int64(time.Since(p.t0)))
		} else {
			c.failed++
		}
		if free != nil {
			free <- struct{}{}
		}
	}
}

func (c *conn) bad(msg string) {
	if c.firstBad == "" {
		c.firstBad = msg
	}
}

// closed runs a closed loop: window requests outstanding, the next one sent
// only when a reply frees a slot. It stops issuing after limit operations
// (limit > 0) or once dur has passed, then drains, and returns the number
// issued and the wall time from first send to last reply.
func (c *conn) closed(next opFunc, from uint64, limit uint64, dur time.Duration, window int) (uint64, time.Duration) {
	c.lat = c.lat[:0]
	inflight := make(chan pending, window)
	free := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		free <- struct{}{}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); c.read(inflight, free) }()

	start := time.Now()
	var n uint64
	for ; limit == 0 || n < limit; n++ {
		select {
		case <-free:
		default:
			// About to wait for a reply: everything buffered must be on
			// the wire first.
			c.bw.Flush()
			<-free
		}
		now := time.Now()
		if limit == 0 && now.Sub(start) >= dur {
			break
		}
		kind, idx, val := next(from + n)
		p := c.issue(kind, idx, val)
		p.t0 = now
		inflight <- p
	}
	c.bw.Flush()
	close(inflight)
	wg.Wait()
	return n, time.Since(start)
}

// open runs an open loop at rate requests per second on a fixed-interval
// schedule for dur. Request i is due at start + i*interval whatever the
// server does; its latency is timed from that due instant, so a stall is
// charged to every request that was due during it, and how late the
// generator itself sent each request is recorded in c.lag.
func (c *conn) open(next opFunc, from uint64, rate float64, dur time.Duration) (uint64, time.Duration) {
	c.lat, c.lag = c.lat[:0], c.lag[:0]
	// Deep enough that the writer only blocks when the server is more than
	// a second and a half of schedule behind; blocking shows up as lag.
	inflight := make(chan pending, 1<<16)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); c.read(inflight, nil) }()

	interval := time.Duration(float64(time.Second) / rate)
	total := uint64(dur / interval)
	start := time.Now()
	for n := uint64(0); n < total; {
		due := start.Add(time.Duration(n) * interval)
		now := time.Now()
		if now.Before(due) {
			c.bw.Flush()
			time.Sleep(due.Sub(now))
			continue
		}
		kind, idx, val := next(from + n)
		p := c.issue(kind, idx, val)
		p.t0 = due
		c.lag = append(c.lag, int64(now.Sub(due)))
		inflight <- p
		n++
	}
	c.bw.Flush()
	close(inflight)
	wg.Wait()
	return total, time.Since(start)
}

// trial is one timed phase over all connections.
type trial struct {
	elapsed time.Duration // longest connection
	lat     []int64       // sorted, all connections; valid until the next trial
	lag     []int64       // sorted, open loop only
}

func (t trial) opsPerSec() float64 { return float64(len(t.lat)) / t.elapsed.Seconds() }

// driver owns the benchmark's connections. All load comes from this one
// process, one writer and one reader goroutine per connection.
type driver struct {
	conns   []*conn
	next    []uint64 // per connection: position in its op stream
	scratch []int64
	lagBuf  []int64
}

func newDriver(addr string, owned [][]uint64) (*driver, error) {
	d := &driver{next: make([]uint64, len(owned))}
	for _, keys := range owned {
		c, err := dialConn(addr, keys)
		if err != nil {
			d.close()
			return nil, err
		}
		d.conns = append(d.conns, c)
	}
	return d, nil
}

func (d *driver) close() {
	for _, c := range d.conns {
		c.c.Close()
	}
}

// each runs fn on every connection concurrently and merges the samples.
func (d *driver) each(fn func(i int, c *conn) time.Duration) trial {
	var t trial
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, c := range d.conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			el := fn(i, c)
			mu.Lock()
			if el > t.elapsed {
				t.elapsed = el
			}
			mu.Unlock()
		}(i, c)
	}
	wg.Wait()
	d.scratch, d.lagBuf = d.scratch[:0], d.lagBuf[:0]
	for _, c := range d.conns {
		d.scratch = append(d.scratch, c.lat...)
		d.lagBuf = append(d.lagBuf, c.lag...)
		c.lag = c.lag[:0]
	}
	sortInt64(d.scratch)
	sortInt64(d.lagBuf)
	t.lat, t.lag = d.scratch, d.lagBuf
	return t
}

// closed runs one closed-loop trial of the streams for dur.
func (d *driver) closed(streams []*stream, dur time.Duration, window int) trial {
	return d.each(func(i int, c *conn) time.Duration {
		n, el := c.closed(streams[i].op, d.next[i], 0, dur, window)
		d.next[i] += n
		return el
	})
}

// open runs one open-loop trial at rate requests per second in total.
func (d *driver) open(streams []*stream, rate float64, dur time.Duration) trial {
	return d.each(func(i int, c *conn) time.Duration {
		n, el := c.open(streams[i].op, d.next[i], rate/float64(len(d.conns)), dur)
		d.next[i] += n
		return el
	})
}

// once issues fn's operation for every key of every connection, closed loop.
func (d *driver) once(fn func(c *conn) opFunc, window int) trial {
	return d.each(func(_ int, c *conn) time.Duration {
		_, el := c.closed(fn(c), 0, uint64(len(c.keys)), 0, window)
		return el
	})
}

// preload SETs every key once, so GETs hit and DELs delete from the first
// timed request on.
func (d *driver) preload(seed uint64, window int) trial {
	return d.once(func(c *conn) opFunc {
		return func(i uint64) (opKind, int, uint64) {
			return opSet, int(i), 1 + mix64(seed^c.keys[i])%1_000_000_000
		}
	}, window)
}

// sweep GETs every key once; each reply must equal the driver's model, so
// the final store state is checked through the front door.
func (d *driver) sweep(window int) trial {
	return d.once(func(*conn) opFunc {
		return func(i uint64) (opKind, int, uint64) { return opGet, int(i), 0 }
	}, window)
}

// tallies sums the connections' lifetime counters.
func (d *driver) tallies() (sent, failed int64, firstBad string) {
	for _, c := range d.conns {
		sent += c.sent
		failed += c.failed
		if firstBad == "" {
			firstBad = c.firstBad
		}
	}
	return
}
