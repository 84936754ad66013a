package main

import (
	"bufio"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// echoServer answers every request line with OK and allocates nothing per
// line, so what the generator itself costs can be measured against it. It
// can be told to stall once, which is how the self-test checks that an
// open loop charges a server stall to every request that was due during it.
type echoServer struct {
	ln         net.Listener
	wg         sync.WaitGroup
	lines      atomic.Int64
	stallAfter int64 // stall once this many lines have been answered (0: never)
	stall      time.Duration
}

func startEcho(stallAfter int64, stall time.Duration) (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln, stallAfter: stallAfter, stall: stall}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // closed by stop
			}
			e.wg.Add(1)
			go e.serve(c)
		}
	}()
	return e, nil
}

func (e *echoServer) addr() string { return e.ln.Addr().String() }

func (e *echoServer) serve(c net.Conn) {
	defer e.wg.Done()
	defer c.Close()
	br, bw := bufio.NewReaderSize(c, 1<<16), bufio.NewWriterSize(c, 1<<16)
	for {
		if _, err := br.ReadSlice('\n'); err != nil {
			return
		}
		if e.lines.Add(1) == e.stallAfter {
			bw.Flush()
			time.Sleep(e.stall)
		}
		bw.WriteString("OK\n")
		if br.Buffered() == 0 {
			if bw.Flush() != nil {
				return
			}
		}
	}
}

// stop closes the listener and waits for the connection handlers, which end
// when their clients hang up.
func (e *echoServer) stop() {
	e.ln.Close()
	e.wg.Wait()
}

// setOnly is a stream of SETs over keys: every reply is OK, which is all
// the echo server can say.
func setOnly(keys []uint64) *stream { return newStream(1, 0, keys, mix{}) }

// generatorAllocsPerOp drives ops closed-loop requests through one raw
// connection against the echo server and returns the heap allocations per
// request of the whole process — generator and echo server both.
func generatorAllocsPerOp(ops uint64) (float64, error) {
	e, err := startEcho(0, 0)
	if err != nil {
		return 0, err
	}
	defer e.stop()
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	c, err := dialConn(e.addr(), keys)
	if err != nil {
		return 0, err
	}
	defer c.c.Close()
	s := setOnly(keys)
	c.closed(s.op, 0, 1000, 0, kvWindow) // first use grows buffers and starts goroutines
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, _ := c.closed(s.op, 1000, ops, 0, kvWindow)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// probeGenerator records what the load generator itself allocates.
func probeGenerator(rc *runCtx, parent int) {
	sp := rc.tr.begin("bench.generator_allocs", parent)
	defer rc.tr.end(sp)
	a, err := generatorAllocsPerOp(50_000)
	if err != nil {
		rc.res.fail(1, "probe: %v", err)
		return
	}
	rc.res.set("bench.gen_allocs_per_op", a)
}
