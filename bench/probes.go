package main

import (
	"runtime"
	"time"

	"github.com/gpm-sim/gpm/internal/cache"
	core "github.com/gpm-sim/gpm/internal/core"
	"github.com/gpm-sim/gpm/internal/gpu"
	"github.com/gpm-sim/gpm/internal/memsys"
	"github.com/gpm-sim/gpm/internal/pmem"
	"github.com/gpm-sim/gpm/internal/serve"
	"github.com/gpm-sim/gpm/internal/sim"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// The probes time each layer's public primitives alone, the way
// "Persistent Memory I/O Primitives" times a device before composing paths:
// a tight loop from this package around one call, no server, no workload.
// They run at the end of every traced run; what they measure does not
// depend on the workload or the seed.

const (
	probeBlocks  = 64
	probeTPB     = 256
	probeThreads = probeBlocks * probeTPB
	probeBudget  = 40 * time.Millisecond // per probe, at least 3 repetitions
)

// perUnit repeats fn — which performs units operations — until the budget
// is used, and returns the median ns per operation. reset, when non-nil,
// runs untimed before each repetition.
func perUnit(rc *runCtx, parent int, name string, units int, reset, fn func()) float64 {
	sp := rc.tr.begin(name, parent)
	defer rc.tr.end(sp)
	budget, minReps := probeBudget, 3
	if rc.smoke {
		budget, minReps = 0, 1
	}
	var reps []float64
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		if reset != nil {
			reset()
		}
		t0 := time.Now()
		fn()
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/float64(units))
	}
	return median(reps)
}

// mallocsPer returns the heap allocations per call of fn over n calls.
func mallocsPer(n int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func runProbes(rc *runCtx, parent int) {
	probeGPU(rc, parent)
	probeMemsys(rc, parent)
	probeCacheAndPmem(rc, parent)
	probeCore(rc, parent)
	probeShard(rc, parent)
	probeGenerator(rc, parent)
}

// probeGPU launches synthetic kernels on a default node.
func probeGPU(rc *runCtx, parent int) {
	r := rc.res
	ctx := core.NewDefaultContext()
	empty := func(*gpu.Thread) {}
	r.set("gpu.launch_empty_ns", perUnit(rc, parent, "gpu.launch_empty", 1, nil, func() {
		ctx.Launch("probe", 1, 32, empty)
	}))
	r.set("gpu.allocs_per_launch", mallocsPer(64, func() { ctx.Launch("probe", 1, 32, empty) }))
	r.set("gpu.thread_ns_empty", perUnit(rc, parent, "gpu.threads_empty", probeThreads, nil, func() {
		ctx.Launch("probe", probeBlocks, probeTPB, empty)
	}))

	m, err := ctx.Map("/pm/probe.data", probeThreads*8, true)
	if err != nil {
		r.fail(1, "probe: %v", err)
		return
	}
	r.set("gpu.store_pm_fence_ns", perUnit(rc, parent, "gpu.store_pm_fence", probeThreads, nil, func() {
		ctx.PersistBegin()
		ctx.Launch("probe", probeBlocks, probeTPB, func(t *gpu.Thread) {
			t.StoreU64(m.Addr+uint64(t.GlobalID())*8, 42)
			t.FenceSystem()
		})
		ctx.PersistEnd()
	}))
	hbm := ctx.Space.AllocHBM(probeThreads * 8)
	r.set("gpu.store_hbm_ns", perUnit(rc, parent, "gpu.store_hbm", probeThreads, nil, func() {
		ctx.Launch("probe", probeBlocks, probeTPB, func(t *gpu.Thread) {
			t.StoreU64(hbm+uint64(t.GlobalID())*8, 42)
		})
	}))
	const syncs = 4
	r.set("gpu.syncblock_ns", perUnit(rc, parent, "gpu.syncblock", probeThreads*syncs, nil, func() {
		ctx.Launch("probe", probeBlocks, probeTPB, func(t *gpu.Thread) {
			for i := 0; i < syncs; i++ {
				t.SyncBlock()
			}
		})
	}))
	r.set("gpu.atomic_ns", perUnit(rc, parent, "gpu.atomic", probeThreads, nil, func() {
		ctx.Launch("probe", probeBlocks, probeTPB, func(t *gpu.Thread) {
			t.AtomicAdd32(hbm, 1)
		})
	}))
}

// probeMemsys drives the unified address space the way a GPU store does.
func probeMemsys(rc *runCtx, parent int) {
	r := rc.res
	sp := memsys.New(sim.Default(), memsys.DefaultConfig())
	sp.SetDDIOOff(true) // as inside a persistent kernel: stores reach PM, not the LLC
	const span = 1 << 20
	pm := sp.AllocPM(span, 0)
	var lines []uint64
	write := func(size int) func() {
		buf := make([]byte, size)
		return func() {
			for off := uint64(0); off+uint64(size) <= span; off += 256 {
				lines = sp.WriteGPUSeqInto(lines[:0], pm+off, buf, sp.NextSeq())
			}
		}
	}
	r.set("memsys.write_gpu_pm_ns_8B", perUnit(rc, parent, "memsys.write_8B", span/256, nil, write(8)))
	r.set("memsys.write_gpu_pm_ns_128B", perUnit(rc, parent, "memsys.write_128B", span/256, nil, write(128)))
	buf := make([]byte, 8)
	r.set("memsys.read_ns", perUnit(rc, parent, "memsys.read", span/256, nil, func() {
		for off := uint64(0); off < span; off += 256 {
			sp.Read(pm+off, buf)
		}
	}))
	one := make([]uint64, 1)
	r.set("memsys.persist_lines_ns", perUnit(rc, parent, "memsys.persist_lines", span/256, write(8), func() {
		for off := uint64(0); off < span; off += 256 {
			one[0] = pm + off
			sp.PersistLinesSeq(one, sp.NextSeq())
		}
	}))
}

// probeCacheAndPmem drives the LLC domain and the Optane device directly.
func probeCacheAndPmem(rc *runCtx, parent int) {
	r := rc.res
	params := sim.Default()
	const size = 4 << 20
	dev := pmem.New(params, size)
	line := uint64(dev.LineSize())
	nLines := int(size / line)
	buf := make([]byte, line)
	var scratch []uint64
	dirtyAll := func() {
		for a := uint64(0); a < size; a += line {
			scratch = dev.WriteSeqInto(scratch[:0], a, buf, a/line+1)
		}
	}
	all := make([]uint64, nLines)
	for i := range all {
		all[i] = uint64(i) * line
	}
	r.set("pmem.write_seq_ns_64B", perUnit(rc, parent, "pmem.write_seq", nLines, nil, dirtyAll))
	r.set("pmem.persist_line_ns", perUnit(rc, parent, "pmem.persist_lines", nLines, dirtyAll, func() { dev.PersistLines(all) }))
	r.set("pmem.crash_clean_ns_per_line", perUnit(rc, parent, "pmem.crash_clean", nLines, dirtyAll, func() { dev.CrashWith(pmem.Clean{}, 1) }))
	r.set("pmem.crash_torn_ns_per_line", perUnit(rc, parent, "pmem.crash_torn", nLines, dirtyAll, func() { dev.CrashWith(pmem.TornWords{}, 1) }))

	llc := cache.NewDomain(params, dev)
	const batch = 64 // lines per event, a warp's worth of stores
	events := func(record func(lines []uint64, seq uint64)) func() {
		return func() {
			for i := 0; i < nLines; i += batch {
				record(append([]uint64(nil), all[i:i+batch]...), uint64(i)) // the domain takes ownership
			}
			llc.Drain()
		}
	}
	r.set("cache.cachelines_drain_ns_per_line", perUnit(rc, parent, "cache.cachelines_drain", nLines, dirtyAll, events(llc.CacheLines)))
	r.set("cache.flush_ns_per_line", perUnit(rc, parent, "cache.flush", nLines, nil, events(llc.FlushLines)))
}

// probeCore times libGPM's two persistence services inside a full grid.
func probeCore(rc *runCtx, parent int) {
	r := rc.res
	ctx := core.NewDefaultContext()
	log, err := ctx.LogCreateHCL("/pm/probe.log", probeThreads*64, probeBlocks, probeTPB)
	if err != nil {
		r.fail(1, "probe: %v", err)
		return
	}
	entry := make([]byte, 8)
	r.set("core.hcl_insert_ns", perUnit(rc, parent, "core.hcl_insert", probeThreads, log.HostClearAll, func() {
		ctx.PersistBegin()
		ctx.Launch("probe", probeBlocks, probeTPB, func(t *gpu.Thread) {
			if err := log.Insert(t, entry, -1); err != nil && t.GlobalID() == 0 {
				r.fail(1, "probe: hcl insert: %v", err)
			}
		})
		ctx.PersistEnd()
	}))

	const cpBytes = 1 << 20
	cp, err := ctx.CPCreate("/pm/probe.cp", cpBytes, 1, 1)
	if err == nil {
		err = cp.Register(ctx.Space.AllocHBM(cpBytes), cpBytes, 0)
	}
	if err != nil {
		r.fail(1, "probe: %v", err)
		return
	}
	r.set("core.checkpoint_ns_per_kb", perUnit(rc, parent, "core.checkpoint", cpBytes/1024, nil, func() {
		if _, err := cp.CheckpointGroup(0); err != nil {
			r.fail(1, "probe: checkpoint: %v", err)
		}
	}))
}

// probeShard drives the serving back end alone — Shard.Apply on synthetic
// SET batches, no TCP and no batcher — and one crash-restart cycle.
func probeShard(rc *runCtx, parent int) {
	r := rc.res
	sh, err := serve.NewShard(0, serve.ShardConfig{Mode: workloads.GPM, Sets: 1 << 10, MaxBatch: 256})
	if err != nil {
		r.fail(1, "probe: %v", err)
		return
	}
	owned, err := pickKeys(1, 4096, 1, func(key uint64) (int, int) { return 0, sh.SlotOf(key) })
	if err != nil {
		r.fail(1, "probe: %v", err)
		return
	}
	keys := owned[0]
	// Keys with private slots: any run of them is a valid batch (at most
	// one mutation per slot), and successive batches walk the key list.
	at, val := 0, uint64(0)
	batchOf := func(fill int) *serve.Batch {
		if at+fill > len(keys) {
			at = 0
		}
		b := &serve.Batch{SetKeys: keys[at : at+fill], SetVals: make([]uint64, fill)}
		for i := range b.SetVals {
			val++
			b.SetVals[i] = val
		}
		at += fill
		return b
	}
	var stage, kernel, persist time.Duration
	apply := func(fill int) func() {
		return func() {
			res, err := sh.Apply(batchOf(fill))
			if err != nil {
				r.fail(1, "probe: apply: %v", err)
				return
			}
			stage, kernel, persist = stage+res.WallStage, kernel+res.WallKernel, persist+res.WallPersist
		}
	}
	r.set("serve.apply_ns_per_op_fill1", perUnit(rc, parent, "serve.apply_fill1", 1, nil, apply(1)))
	stage, kernel, persist = 0, 0, 0
	r.set("serve.apply_ns_per_op_fill16", perUnit(rc, parent, "serve.apply_fill16", 16, nil, apply(16)))
	if total := float64(stage + kernel + persist); total > 0 {
		r.set("serve.apply_stage_share", float64(stage)/total)
		r.set("serve.apply_kernel_share", float64(kernel)/total)
		r.set("serve.apply_persist_share", float64(persist)/total)
	}
	r.set("serve.apply_allocs_fill16", mallocsPer(32, apply(16)))
	r.set("serve.apply_ns_per_op_fill256", perUnit(rc, parent, "serve.apply_fill256", 256, nil, apply(256)))

	// Die inside the mutate kernel, come back, and check the store.
	sp := rc.tr.begin("serve.crash_restart", parent)
	defer rc.tr.end(sp)
	if err := sh.CrashAt(batchOf(64), serve.CrashMidKernel, 16); err != nil {
		r.fail(1, "probe: crash: %v", err)
		return
	}
	t0 := time.Now()
	simTime, err := sh.Restart()
	wall := time.Since(t0)
	if err == nil {
		err = sh.Verify()
	}
	if err != nil {
		r.fail(1, "probe: restart: %v", err)
		return
	}
	r.set("serve.restart_wall_ms", wall.Seconds()*1e3)
	r.set("serve.recover_sim_us", float64(simTime)/1e3)
}
