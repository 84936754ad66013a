package gpu

import (
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/gpm-sim/gpm/internal/memsys"
	"github.com/gpm-sim/gpm/internal/sim"
)

func newDev(t *testing.T) *Device {
	t.Helper()
	sp := memsys.New(sim.Default(), memsys.Config{HBMSize: 4 << 20, DRAMSize: 4 << 20, PMSize: 8 << 20})
	return New(sp)
}

func TestEveryThreadRuns(t *testing.T) {
	d := newDev(t)
	var count atomic.Int64
	res := d.Launch("count", 7, 65, func(th *Thread) {
		count.Add(1)
	})
	if count.Load() != 7*65 {
		t.Errorf("ran %d threads, want %d", count.Load(), 7*65)
	}
	if res.Elapsed < d.Params.KernelLaunch {
		t.Errorf("elapsed %v below launch overhead", res.Elapsed)
	}
}

func TestThreadIdentity(t *testing.T) {
	d := newDev(t)
	seen := make([]atomic.Bool, 4*64)
	d.Launch("ids", 4, 64, func(th *Thread) {
		g := th.GlobalID()
		if g != th.Block().ID()*64+th.ID() {
			t.Errorf("global id mismatch")
		}
		if th.Lane() != th.ID()%32 || th.WarpID() != th.ID()/32 {
			t.Errorf("lane/warp mismatch")
		}
		if th.GridThreads() != 4*64 || th.Block().Grid() != 4 || th.Block().Threads() != 64 {
			t.Errorf("grid shape mismatch")
		}
		if seen[g].Swap(true) {
			t.Errorf("thread %d ran twice", g)
		}
	})
	for i := range seen {
		if !seen[i].Load() {
			t.Fatalf("thread %d never ran", i)
		}
	}
}

func TestHBMStoreLoadRoundTrip(t *testing.T) {
	d := newDev(t)
	buf := d.Space.AllocHBM(4 * 256)
	d.Launch("write", 1, 256, func(th *Thread) {
		th.StoreU32(buf+uint64(4*th.GlobalID()), uint32(th.GlobalID()*3))
	})
	d.Launch("read", 1, 256, func(th *Thread) {
		if v := th.LoadU32(buf + uint64(4*th.GlobalID())); v != uint32(th.GlobalID()*3) {
			t.Errorf("thread %d read %d", th.GlobalID(), v)
		}
	})
}

func TestSyncBlockOrdersPhases(t *testing.T) {
	d := newDev(t)
	buf := d.Space.AllocHBM(4 * 128)
	ok := atomic.Bool{}
	ok.Store(true)
	d.Launch("sync", 1, 128, func(th *Thread) {
		th.StoreU32(buf+uint64(4*th.ID()), 7)
		th.SyncBlock()
		// After the barrier every other thread's store must be visible.
		peer := (th.ID() + 37) % 128
		if th.LoadU32(buf+uint64(4*peer)) != 7 {
			ok.Store(false)
		}
	})
	if !ok.Load() {
		t.Error("stores before barrier not visible after it")
	}
}

func TestFencePersistsWithDDIOOff(t *testing.T) {
	d := newDev(t)
	addr := d.Space.AllocPM(64, 0)
	d.Space.SetDDIOOff(true)
	d.Launch("persist", 1, 1, func(th *Thread) {
		th.StoreU32(addr, 42)
		th.FenceSystem()
	})
	d.Space.Crash()
	if got := d.Space.ReadU32(addr); got != 42 {
		t.Errorf("fenced store lost: %d", got)
	}
}

func TestFenceDoesNotPersistWithDDIOOn(t *testing.T) {
	d := newDev(t)
	addr := d.Space.AllocPM(64, 0)
	d.Launch("nopersist", 1, 1, func(th *Thread) {
		th.StoreU32(addr, 42)
		th.FenceSystem() // completes at the LLC; not durable
	})
	d.Space.Crash()
	if got := d.Space.ReadU32(addr); got != 0 {
		t.Errorf("DDIO-on fence persisted data: %d", got)
	}
}

func TestUnfencedWriteLost(t *testing.T) {
	d := newDev(t)
	addr := d.Space.AllocPM(64, 0)
	d.Space.SetDDIOOff(true)
	d.Launch("nofence", 1, 1, func(th *Thread) {
		th.StoreU32(addr, 42)
	})
	d.Space.Crash()
	if got := d.Space.ReadU32(addr); got != 0 {
		t.Errorf("unfenced store survived: %d", got)
	}
}

func TestCoalescingOneTxnPerWarpLine(t *testing.T) {
	d := newDev(t)
	d.Space.SetDDIOOff(true)
	addr := d.Space.AllocPM(4*64, 0)
	// 32 lanes × 4B contiguous = 128B = exactly one coalesced transaction.
	res := d.Launch("coalesced", 1, 32, func(th *Thread) {
		th.StoreU32(addr+uint64(4*th.Lane()), 1)
	})
	if res.Stats.PMWriteTxns != 1 {
		t.Errorf("coalesced warp store = %d txns, want 1", res.Stats.PMWriteTxns)
	}
	if res.Stats.PMWriteBytes != 128 {
		t.Errorf("bytes = %d", res.Stats.PMWriteBytes)
	}
}

func TestScatteredStoresDoNotCoalesce(t *testing.T) {
	d := newDev(t)
	d.Space.SetDDIOOff(true)
	addr := d.Space.AllocPM(32*256, 0)
	res := d.Launch("scattered", 1, 32, func(th *Thread) {
		th.StoreU32(addr+uint64(256*th.Lane()), 1) // each lane on its own 128B block
	})
	if res.Stats.PMWriteTxns != 32 {
		t.Errorf("scattered warp store = %d txns, want 32", res.Stats.PMWriteTxns)
	}
}

func TestCoalescedFasterThanScattered(t *testing.T) {
	d := newDev(t)
	d.Space.SetDDIOOff(true)
	n := 1 << 14
	a := d.Space.AllocPM(int64(n)*4, 0)
	b := d.Space.AllocPM(int64(n)*256, 0)
	co := d.Launch("co", n/256, 256, func(th *Thread) {
		th.StoreU32(a+uint64(4*th.GlobalID()), 1)
		th.FenceSystem()
	})
	sc := d.Launch("sc", n/256, 256, func(th *Thread) {
		th.StoreU32(b+uint64(256*th.GlobalID()), 1)
		th.FenceSystem()
	})
	if co.Elapsed >= sc.Elapsed {
		t.Errorf("coalesced (%v) not faster than scattered (%v)", co.Elapsed, sc.Elapsed)
	}
}

func TestFenceCostSerializesWarp(t *testing.T) {
	d := newDev(t)
	d.Space.SetDDIOOff(true)
	addr := d.Space.AllocPM(1<<20, 0)
	noFence := d.Launch("nf", 1, 32, func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.StoreU32(addr+uint64(i*128+4*th.Lane()), 1)
		}
	})
	withFence := d.Launch("wf", 1, 32, func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.StoreU32(addr+uint64(i*128+4*th.Lane()), 1)
			th.FenceSystem()
		}
	})
	if withFence.Elapsed < noFence.Elapsed+90*sim.Microsecond/2 {
		t.Errorf("100 fences cost too little: %v vs %v", withFence.Elapsed, noFence.Elapsed)
	}
	if withFence.Stats.Fences != 100*32 {
		t.Errorf("fences = %d", withFence.Stats.Fences)
	}
}

func TestParallelismHidesFenceLatency(t *testing.T) {
	// More warps persisting the same total data should be faster, up to
	// the bandwidth bound (Fig 3b's mechanism).
	d := newDev(t)
	d.Space.SetDDIOOff(true)
	total := 1 << 18
	a := d.Space.AllocPM(int64(total), 0)
	run := func(threads int) sim.Duration {
		per := total / 4 / threads
		blocks := (threads + 255) / 256
		tpb := threads
		if tpb > 256 {
			tpb = 256
		}
		res := d.Launch("scale", blocks, tpb, func(th *Thread) {
			base := a + uint64(th.GlobalID()*per*4)
			for i := 0; i < per; i++ {
				th.StoreU32(base+uint64(4*i), 1)
				th.FenceSystem()
			}
		})
		return res.Elapsed
	}
	t32, t1024 := run(32), run(1024)
	if t1024 >= t32 {
		t.Errorf("1024 threads (%v) not faster than 32 (%v)", t1024, t32)
	}
}

func TestSerializeBindsKernelTime(t *testing.T) {
	d := newDev(t)
	res := d.Launch("serial", 4, 64, func(th *Thread) {
		th.Serialize("lock", sim.Microsecond)
	})
	want := sim.Duration(4*64) * sim.Microsecond
	if res.Elapsed < want {
		t.Errorf("serialized time not honored: %v < %v", res.Elapsed, want)
	}
	if res.Stats.Serial["lock"] != want {
		t.Errorf("serial accounting = %v", res.Stats.Serial["lock"])
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	d := newDev(t)
	quick := d.Launch("q", 1, 32, func(th *Thread) { th.Compute(sim.Microsecond) })
	slow := d.Launch("s", 1, 32, func(th *Thread) { th.Compute(sim.Millisecond) })
	if slow.Elapsed <= quick.Elapsed {
		t.Errorf("compute not accounted: %v vs %v", slow.Elapsed, quick.Elapsed)
	}
}

func TestWavesScaleElapsed(t *testing.T) {
	d := newDev(t)
	one := d.Launch("w1", d.Params.MaxConcurrentBlocks(), 32, func(th *Thread) {
		th.Compute(100 * sim.Microsecond)
	})
	four := d.Launch("w4", 4*d.Params.MaxConcurrentBlocks(), 32, func(th *Thread) {
		th.Compute(100 * sim.Microsecond)
	})
	ratio := float64(four.Elapsed) / float64(one.Elapsed)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("4 waves / 1 wave = %.2f, want ~4", ratio)
	}
}

func TestAtomicAdd(t *testing.T) {
	d := newDev(t)
	addr := d.Space.AllocHBM(4)
	d.Launch("atomic", 8, 128, func(th *Thread) {
		th.AtomicAdd32(addr, 1)
	})
	if got := d.Space.ReadU32(addr); got != 8*128 {
		t.Errorf("atomic sum = %d, want %d", got, 8*128)
	}
}

func TestAtomicMinMaxCASExchOr(t *testing.T) {
	d := newDev(t)
	base := d.Space.AllocHBM(64)
	d.Space.WriteU32(base, 1000)
	d.Launch("min", 1, 64, func(th *Thread) {
		th.AtomicMin32(base, uint32(500+th.ID()))
	})
	if got := d.Space.ReadU32(base); got != 500 {
		t.Errorf("atomic min = %d", got)
	}
	d.Launch("max", 1, 64, func(th *Thread) {
		th.AtomicMax32(base+4, uint32(th.ID()))
	})
	if got := d.Space.ReadU32(base + 4); got != 63 {
		t.Errorf("atomic max = %d", got)
	}
	var wins atomic.Int32
	d.Launch("cas", 1, 64, func(th *Thread) {
		if th.AtomicCAS32(base+8, 0, uint32(th.ID()+1)) == 0 {
			wins.Add(1)
		}
	})
	if wins.Load() != 1 {
		t.Errorf("CAS winners = %d, want 1", wins.Load())
	}
	d.Launch("or", 1, 32, func(th *Thread) {
		th.AtomicOr32(base+12, 1<<uint(th.ID()))
	})
	if got := d.Space.ReadU32(base + 12); got != 0xffffffff {
		t.Errorf("atomic or = %#x", got)
	}
	d.Launch("exch", 1, 1, func(th *Thread) {
		if old := th.AtomicExch32(base+16, 9); old != 0 {
			t.Errorf("exch old = %d", old)
		}
	})
	if got := d.Space.ReadU32(base + 16); got != 9 {
		t.Errorf("exch = %d", got)
	}
}

func TestSharedMemory(t *testing.T) {
	d := newDev(t)
	sum := d.Space.AllocHBM(4 * 8)
	d.Launch("shared", 8, 64, func(th *Thread) {
		sh := th.Block().Shared(64 * 4)
		sh[th.ID()*4] = byte(1)
		th.SyncBlock()
		if th.ID() == 0 {
			total := uint32(0)
			for i := 0; i < 64; i++ {
				total += uint32(sh[i*4])
			}
			th.StoreU32(sum+uint64(4*th.Block().ID()), total)
		}
	})
	for b := 0; b < 8; b++ {
		if got := d.Space.ReadU32(sum + uint64(4*b)); got != 64 {
			t.Errorf("block %d shared sum = %d", b, got)
		}
	}
}

func TestAbortCheckCrashesKernel(t *testing.T) {
	d := newDev(t)
	addr := d.Space.AllocPM(1<<19, 0)
	d.Space.SetDDIOOff(true)
	d.SetAbortCheck(func(op int64) bool { return op >= 1000 })
	res := d.Launch("doomed", 8, 128, func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.StoreU32(addr+uint64(th.GlobalID()*100+i)*4, 1)
		}
	})
	if !res.Crashed {
		t.Fatal("kernel did not crash")
	}
	d.SetAbortCheck(nil)
	res2 := d.Launch("fine", 1, 32, func(th *Thread) { th.StoreU32(addr, 1) })
	if res2.Crashed {
		t.Error("crash state leaked into next kernel")
	}
}

func TestCrashWithBarriersDoesNotDeadlock(t *testing.T) {
	d := newDev(t)
	addr := d.Space.AllocPM(1<<16, 0)
	d.Space.SetDDIOOff(true)
	d.SetAbortCheck(func(op int64) bool { return op >= 50 })
	res := d.Launch("barriered", 2, 64, func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.StoreU32(addr+uint64(th.GlobalID()*4), uint32(i))
			th.SyncBlock()
		}
	})
	if !res.Crashed {
		t.Fatal("expected crash")
	}
	d.SetAbortCheck(nil)
}

func TestLoadStoreTypes(t *testing.T) {
	d := newDev(t)
	a := d.Space.AllocHBM(64)
	d.Launch("types", 1, 1, func(th *Thread) {
		th.StoreU64(a, 1<<40)
		th.StoreF32(a+8, 1.5)
		th.StoreF64(a+16, -0.25)
		if th.LoadU64(a) != 1<<40 || th.LoadF32(a+8) != 1.5 || th.LoadF64(a+16) != -0.25 {
			t.Error("typed round trip failed")
		}
	})
}

func TestFenceScopesCost(t *testing.T) {
	d := newDev(t)
	res := d.Launch("scopes", 1, 32, func(th *Thread) {
		th.FenceBlock()
		th.FenceDevice()
	})
	if res.Elapsed <= d.Params.KernelLaunch {
		t.Error("scoped fences cost nothing")
	}
}

func TestPMPatternClassification(t *testing.T) {
	d := newDev(t)
	d.Space.SetDDIOOff(true)
	a := d.Space.AllocPM(1<<20, 0)
	res := d.Launch("seq", 32, 256, func(th *Thread) {
		th.StoreU32(a+uint64(4*th.GlobalID()), 1)
	})
	pat := res.Stats.PMPattern()
	if pat.SeqFraction() < 0.5 {
		t.Errorf("grid-sequential store stream seq fraction = %.2f", pat.SeqFraction())
	}
}

func TestInvalidLaunchPanics(t *testing.T) {
	d := newDev(t)
	for _, c := range []struct{ b, t int }{{0, 32}, {1, 0}, {1, 2048}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("launch %dx%d did not panic", c.b, c.t)
				}
			}()
			d.Launch("bad", c.b, c.t, func(*Thread) {})
		}()
	}
}

// LoadF32s is one wide load: the same transactions, bytes and time as a
// LoadBytes of 4n bytes, decoded into a buffer the thread keeps, so a row
// load allocates nothing once the buffer has grown.
func TestLoadF32sIsOneAllocationFreeWideLoad(t *testing.T) {
	const n = 200
	d := newDev(t)
	a, b := d.Space.AllocPM(4*n, 0), d.Space.AllocPM(4*n, 0)
	for i := 0; i < n; i++ {
		d.Space.WriteF32(a+uint64(4*i), float32(i))
		d.Space.WriteF32(b+uint64(4*i), float32(-i))
	}
	raw := d.Launch("rows", 1, 1, func(th *Thread) {
		th.LoadBytes(a, make([]byte, 4*n))
		th.LoadBytes(b, make([]byte, 4*n))
	})
	var allocs float64
	rows := d.Launch("rows", 1, 1, func(th *Thread) {
		x, y := th.LoadF32s(0, a, n), th.LoadF32s(1, b, n)
		for i := range x {
			if x[i] != float32(i) || y[i] != float32(-i) {
				t.Fatalf("row element %d = %v, %v", i, x[i], y[i])
			}
		}
		// The SIMT steps' amortised growth is not the row load's.
		allocs = testing.AllocsPerRun(100, func() { th.LoadF32s(0, a, n) })
	})
	if allocs != 0 {
		t.Errorf("row load: %v allocs, want 0", allocs)
	}
	rows = d.Launch("rows", 1, 1, func(th *Thread) {
		th.LoadF32s(0, a, n)
		th.LoadF32s(1, b, n)
	})
	if rows.Stats.PMReadTxns != raw.Stats.PMReadTxns || rows.Stats.PMReadBytes != raw.Stats.PMReadBytes ||
		rows.Elapsed != raw.Elapsed {
		t.Errorf("row loads (%d txns, %d B, %v) differ from raw loads (%d txns, %d B, %v)",
			rows.Stats.PMReadTxns, rows.Stats.PMReadBytes, rows.Elapsed,
			raw.Stats.PMReadTxns, raw.Stats.PMReadBytes, raw.Elapsed)
	}
}

// TestCoalescerRules pins the coalescer's rule on one-step warp scripts:
// within a SIMT step, the host DRAM and PM accesses of one kind to one
// CoalesceBytes block form one transaction, grouped under the block an
// access starts in and spanning its lowest address to its highest end; HBM
// accesses count bytes only; the step costs the max over its operations;
// and the step's PM writes reach the pattern stats — stores, then atomics,
// each in ascending address order — whatever order the lanes issued them
// in. Every expectation is derived by hand from that rule.
func TestCoalescerRules(t *testing.T) {
	type mem struct{ pm, dram, hbm uint64 }
	p := sim.Default()
	cases := []struct {
		name   string
		script func(th *Thread, m mem)
		stats  Stats
		pat    sim.AccessSnapshot
		lat    sim.Duration // the step's latency
	}{{
		// Records (pm+128i, 128) for i = 0..31: one 256-aligned run, every
		// byte on the fast path.
		name: "pm stores ascending",
		script: func(th *Thread, m mem) {
			th.StoreBytes(m.pm+128*uint64(th.Lane()), make([]byte, 128))
		},
		stats: Stats{PMWriteBytes: 4096, PMWriteTxns: 32},
		pat:   sim.AccessSnapshot{Txns: 32, Bytes: 4096, Sequential: 31, Aligned256: 16, BytesFast: 4096},
		lat:   p.GPUIssueCost,
	}, {
		name: "pm stores descending",
		script: func(th *Thread, m mem) {
			th.StoreBytes(m.pm+128*uint64(31-th.Lane()), make([]byte, 128))
		},
		stats: Stats{PMWriteBytes: 4096, PMWriteTxns: 32},
		pat:   sim.AccessSnapshot{Txns: 32, Bytes: 4096, Sequential: 31, Aligned256: 16, BytesFast: 4096},
		lat:   p.GPUIssueCost,
	}, {
		// The atomic (lane 0, pm+4) records after the store (lane 1, pm),
		// and continues its run.
		name: "pm store and atomic share a block",
		script: func(th *Thread, m mem) {
			switch th.Lane() {
			case 0:
				th.AtomicAdd32(m.pm+4, 1)
			case 1:
				th.StoreU32(m.pm, 1)
			}
		},
		stats: Stats{PMWriteBytes: 8, PMWriteTxns: 2},
		pat:   sim.AccessSnapshot{Txns: 2, Bytes: 8, Sequential: 1, Aligned256: 1, BytesFast: 4, BytesRandom: 4},
		lat:   max(p.GPUIssueCost, p.PCIeRTT),
	}, {
		name: "dram load and store share a block",
		script: func(th *Thread, m mem) {
			a := m.dram + 4*uint64(th.Lane())
			if th.Lane() < 16 {
				th.LoadU32(a)
			} else {
				th.StoreU32(a, 1)
			}
		},
		stats: Stats{HostReadBytes: 64, HostWriteBytes: 64, HostTxns: 2},
		lat:   max(p.GPULoadStall, p.GPUIssueCost),
	}, {
		name: "scattered hbm loads",
		script: func(th *Thread, m mem) {
			th.LoadU32(m.hbm + 4096*uint64(th.Lane()))
		},
		stats: Stats{HBMBytes: 128},
		lat:   p.HBMLatency,
	}, {
		// Block 0 holds [pm+120, pm+132): lane 0's store straddles into
		// block 1 and lane 2's starts lower. Block 1 holds lane 1's
		// [pm+132, pm+136), which continues block 0's span.
		name: "straddling store groups under its start block",
		script: func(th *Thread, m mem) {
			switch th.Lane() {
			case 0:
				th.StoreU64(m.pm+124, 1)
			case 1:
				th.StoreU32(m.pm+132, 1)
			case 2:
				th.StoreU32(m.pm+120, 1)
			}
		},
		stats: Stats{PMWriteBytes: 16, PMWriteTxns: 2},
		pat:   sim.AccessSnapshot{Txns: 2, Bytes: 16, Sequential: 1, BytesSeqUnaligned: 4, BytesRandom: 12},
		lat:   p.GPUIssueCost,
	}, {
		name: "long compute beside stores",
		script: func(th *Thread, m mem) {
			if th.Lane() == 0 {
				th.Compute(sim.Microsecond)
				return
			}
			th.StoreU32(m.hbm+4*uint64(th.Lane()), 1)
		},
		stats: Stats{HBMBytes: 124},
		lat:   max(sim.Duration(float64(sim.Microsecond)*p.GPUComputeScale), p.GPUIssueCost),
	}, {
		name: "short compute beside stores",
		script: func(th *Thread, m mem) {
			if th.Lane() == 0 {
				th.Compute(sim.Nanosecond)
				return
			}
			th.StoreU32(m.hbm+4*uint64(th.Lane()), 1)
		},
		stats: Stats{HBMBytes: 124},
		lat:   max(sim.Duration(float64(sim.Nanosecond)*p.GPUComputeScale), p.GPUIssueCost),
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := newDev(t)
			m := mem{pm: d.Space.AllocPM(8192, 0), dram: d.Space.AllocDRAM(4096), hbm: d.Space.AllocHBM(1 << 17)}
			res := d.Launch(c.name, 1, 32, func(th *Thread) { c.script(th, m) })
			got := res.Stats
			got.Serial, got.pmPattern = nil, sim.AccessSnapshot{}
			if !reflect.DeepEqual(got, c.stats) {
				t.Errorf("stats = %+v, want %+v", got, c.stats)
			}
			if pat := res.Stats.PMPattern(); pat != c.pat {
				t.Errorf("PM pattern = %+v, want %+v", pat, c.pat)
			}
			if want := d.Params.KernelLaunch + c.lat; res.Elapsed != want {
				t.Errorf("elapsed = %v, want launch + %v = %v", res.Elapsed, c.lat, want)
			}
		})
	}
}

// A persisting kernel's fence passes its dirty lines to the LLC through the
// thread's scratch, so a launch's allocations do not grow with its fences.
func TestFencedLaunchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops pooled Blocks at random, inflating allocation counts")
	}
	d := newDev(t)
	d.Space.SetDDIOOff(true)
	const blocks, tpb, iters = 2, 64, 8
	hbm := d.Space.AllocHBM(4 * blocks * tpb)
	pm := d.Space.AllocPM(4*blocks*tpb*iters, 0)
	kern := func(th *Thread) {
		g := uint64(th.GlobalID())
		for i := uint64(0); i < iters; i++ {
			th.StoreU32(hbm+4*g, th.LoadU32(hbm+4*g)+1)
			th.SyncBlock()
			th.StoreU32(pm+4*(i*blocks*tpb+g), uint32(i))
			th.FenceSystem()
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { d.Launch("fenced", blocks, tpb, kern) }); allocs > 16 {
		t.Errorf("fenced launch: %v allocs, want <= 16", allocs)
	}
}
