package gpu

import (
	"runtime"
	"testing"
	"time"
)

// drainRunnerPool ends every pooled runner (resumed with no thread, a
// runner returns), so a test starts from an empty pool and its goroutine
// baseline excludes them.
func drainRunnerPool() {
	runnerPool.Lock()
	idle := runnerPool.idle
	runnerPool.idle = nil
	runnerPool.Unlock()
	for _, r := range idle {
		r.resume()
	}
}

func pooledRunners() int {
	runnerPool.Lock()
	defer runnerPool.Unlock()
	return len(runnerPool.idle)
}

// goroutineBaseline waits until no goroutine is still exiting (the count
// stops falling) and returns the count.
func goroutineBaseline() int {
	n := runtime.NumGoroutine()
	for {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
}

// settledGoroutines waits for exiting goroutines (hubs return after their
// block's wg.Done) and reports the count once it is at or below limit, or
// the last count seen if it never gets there.
func settledGoroutines(limit int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > limit && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunnersDoNotLeak runs kernels whose parked threads need more runners
// than the idle pool keeps: a barrier kernel, an all-threads-atomic kernel
// under a spawn window narrower than the wave, and an abort that unwinds
// threads parked at a barrier. After each, the goroutine count must return
// to its baseline plus at most the pool's bound.
func TestRunnersDoNotLeak(t *testing.T) {
	const blocks, tpb = 8, 256 // 8*255 parked runners > maxIdleRunners
	kernels := []struct {
		name    string
		window  int
		abortAt int64
		kern    func(th *Thread, addr uint64)
	}{
		{"barrier", 8, 0, func(th *Thread, addr uint64) {
			for i := 0; i < 3; i++ {
				th.StoreU32(addr+uint64(4*th.GlobalID()), uint32(i))
				th.SyncBlock()
			}
		}},
		{"atomic-narrow-window", 2, 0, func(th *Thread, addr uint64) {
			th.AtomicAdd32(addr, 1)
			th.AtomicAdd32(addr, 1)
		}},
		// Threads 0..1898 park at the first barrier and threads 1899..
		// unwind at it, which releases the last block's parked threads
		// into the next store, where every thread unwinds.
		{"abort-at-barrier", 8, blocks*tpb + 1900, func(th *Thread, addr uint64) {
			for i := 0; i < 10; i++ {
				th.StoreU32(addr+uint64(4*th.GlobalID()), uint32(i))
				th.SyncBlock()
			}
		}},
	}
	drainRunnerPool()
	base := goroutineBaseline()
	for _, k := range kernels {
		d := newDev(t)
		d.SetWorkers(k.window)
		addr := d.Space.AllocHBM(4 * blocks * tpb)
		if k.abortAt != 0 {
			abortAt := k.abortAt
			d.SetAbortCheck(func(op int64) bool { return op >= abortAt })
		}
		res := d.Launch(k.name, blocks, tpb, func(th *Thread) { k.kern(th, addr) })
		if res.Crashed != (k.abortAt != 0) {
			t.Fatalf("%s: Crashed = %v", k.name, res.Crashed)
		}
		if n := pooledRunners(); n > maxIdleRunners {
			t.Fatalf("%s: %d pooled runners, bound %d", k.name, n, maxIdleRunners)
		}
		if n := settledGoroutines(base + maxIdleRunners); n > base+maxIdleRunners {
			t.Fatalf("%s: %d goroutines after the launch, baseline %d + pool bound %d",
				k.name, n, base, maxIdleRunners)
		}
	}
}

// TestNoParkNoRunner checks lazy materialisation: a launch whose threads
// never park runs on the hubs alone, creating no runner, and an empty 1x32
// launch stays at 9 allocations.
func TestNoParkNoRunner(t *testing.T) {
	d := newDev(t)
	drainRunnerPool()
	base := goroutineBaseline()
	addr := d.Space.AllocHBM(4 * 16 * 128)
	d.Launch("noparks", 16, 128, func(th *Thread) {
		a := addr + uint64(4*th.GlobalID())
		th.StoreU32(a, th.LoadU32(a)+1)
	})
	if n := pooledRunners(); n != 0 {
		t.Fatalf("a launch without parks left %d runners in the pool, want 0", n)
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after a launch without parks, baseline %d", n, base)
	}
	if raceEnabled {
		return
	}
	empty := func(*Thread) {}
	d.Launch("warm", 1, 32, empty)
	if allocs := testing.AllocsPerRun(100, func() { d.Launch("empty", 1, 32, empty) }); allocs > 9 {
		t.Fatalf("empty 1x32 launch: %v allocs, want <= 9", allocs)
	}
}
