// Package kvstore implements the transactional KVS workloads: gpKVS — a
// MegaKV-style GPU-accelerated persistent key-value store executing batched
// SET/GET transactions with HCL undo logging on PM (§4.1, Fig 6) — and the
// three CPU PM key-value stores it is compared against in Fig 1a (pmemKV-,
// RocksDB-pmem-, and MatrixKV-style). Store is the gpKVS store itself; the
// workload here and gpmserve's shards (internal/serve) both drive it.
package kvstore

import (
	"fmt"

	"github.com/gpm-sim/gpm/internal/core"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// batch is one transaction of operations.
type batch struct {
	setKeys, setVals []uint64
	delKeys          []uint64 // DELETEs of keys set by earlier batches
	getKeys          []uint64
	getExpect        []uint64 // value expected at GET time (0 if absent)
}

// GpKVS is the gpKVS workload. GetFraction configures the 95:5 variant;
// DeleteFraction converts that share of each batch's mutations into
// DELETEs of keys committed by earlier batches (MegaKV supports
// GET/SET/DELETE); ConvLog switches HCL for the conventional lock-based
// log (Fig 11a).
type GpKVS struct {
	GetFraction    float64
	DeleteFraction float64
	ConvLog        bool

	sets, batches, opsPerBatch int

	store *Store
	log   *gpm.Log

	blocks int
	work   []batch
	model  []uint64 // host model: slot -> key,value (2 u64 per slot)

	committed int  // batches fully committed (crash-consistency reference)
	crashed   bool // a crash was injected; volatile GET results are gone
}

// New returns a 100%-SET gpKVS.
func New() *GpKVS { return &GpKVS{} }

// NewMixed returns the 95% GET / 5% SET variant.
func NewMixed() *GpKVS { return &GpKVS{GetFraction: 0.95} }

// Name implements workloads.Workload.
func (g *GpKVS) Name() string {
	if g.GetFraction > 0 {
		return "gpKVS(95:5)"
	}
	return "gpKVS"
}

// Class implements workloads.Workload.
func (g *GpKVS) Class() string { return "transactional" }

// Supports implements workloads.Workload: fine-grained per-thread KVS
// updates deadlock GPUfs (§6.1); the CPU counterparts are the separate
// CPUKVS workloads.
func (g *GpKVS) Supports(mode workloads.Mode) bool {
	return mode != workloads.GPUfs && mode != workloads.CPUOnly
}

// Setup implements workloads.Workload.
func (g *GpKVS) Setup(env *workloads.Env) error {
	cfg := env.Cfg
	g.sets, g.batches, g.opsPerBatch = cfg.KVSSets, cfg.KVSBatches, cfg.KVSOpsPerBatch

	var err error
	if g.store, err = NewStore(env, g.sets, g.opsPerBatch); err != nil {
		return err
	}
	g.model = make([]uint64, 2*g.store.Slots())

	// Pre-generate batches: SET keys are unique per (set, way) within a
	// batch so concurrent insertion order cannot change the result.
	g.work = make([]batch, g.batches)
	shadow := make([]uint64, len(g.model))
	copy(shadow, g.model)
	nextKey := uint64(1)
	for bi := range g.work {
		b := &g.work[bi]
		nSets := g.opsPerBatch
		if g.GetFraction > 0 {
			nSets = int(float64(g.opsPerBatch) * (1 - g.GetFraction))
			if nSets < 1 {
				nSets = 1
			}
		}
		nDels := int(float64(nSets) * g.DeleteFraction)
		if nDels > nSets-1 {
			nDels = nSets - 1
		}
		nSets -= nDels
		used := make(map[int]bool, nSets+nDels)
		for len(b.setKeys) < nSets {
			key := nextKey
			nextKey++
			set, way := hashKey(key, g.sets)
			slot := set*ways + way
			if used[slot] {
				continue
			}
			used[slot] = true
			val := key*2654435761 + 13
			b.setKeys = append(b.setKeys, key)
			b.setVals = append(b.setVals, val)
			shadow[slot*2] = key
			shadow[slot*2+1] = val
		}
		// DELETEs target keys committed by earlier batches whose slots
		// this batch does not otherwise touch.
		if bi > 0 {
			prev := &g.work[bi-1]
			for _, key := range prev.setKeys {
				if len(b.delKeys) >= nDels {
					break
				}
				set, way := hashKey(key, g.sets)
				slot := set*ways + way
				if used[slot] || shadow[slot*2] != key {
					continue
				}
				used[slot] = true
				b.delKeys = append(b.delKeys, key)
				shadow[slot*2], shadow[slot*2+1] = 0, 0
			}
		}
		// GETs target keys already in the (shadow) store, or misses.
		nGets := g.opsPerBatch - nSets
		if g.GetFraction == 0 {
			nGets = 0
		}
		for len(b.getKeys) < nGets {
			key := uint64(env.RNG.Int63n(int64(nextKey)) + 1)
			set, way := hashKey(key, g.sets)
			slot := set*ways + way
			b.getKeys = append(b.getKeys, key)
			if shadow[slot*2] == key {
				b.getExpect = append(b.getExpect, shadow[slot*2+1])
			} else {
				b.getExpect = append(b.getExpect, 0)
			}
		}
	}

	// The HCL log is shaped for the SET grid: thrdGrpSz threads per op.
	maxSets := 0
	for _, b := range g.work {
		if len(b.setKeys) > maxSets {
			maxSets = len(b.setKeys)
		}
	}
	g.blocks = GridFor(maxSets)
	if Logged(env.Mode) {
		if g.ConvLog {
			g.log, err = env.Ctx.LogCreateConv("/pm/kvs.log", LogSize(g.blocks), 16)
		} else {
			g.log, err = g.store.CreateLog("/pm/kvs.log", g.blocks)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Run implements workloads.Workload: execute every batch as a transaction.
func (g *GpKVS) Run(env *workloads.Env) error {
	for bi := range g.work {
		if err := g.runBatch(env, bi, -1); err != nil {
			return err
		}
		g.commitModel(bi)
	}
	return nil
}

// runBatch executes one transaction; abortAfterOps >= 0 arms the fault
// injector for the SET kernel.
func (g *GpKVS) runBatch(env *workloads.Env, bi int, abortAfterOps int64) error {
	b := &g.work[bi]
	st := g.store
	st.Stage(b.setKeys, b.setVals, b.delKeys, b.getKeys)
	// Both mutate kernels launch on the full grid the log is shaped for;
	// excess threads exit.
	launch := TxLog{Grid: g.blocks}
	var logs []TxLog
	if Logged(env.Mode) && len(b.setKeys) > 0 {
		launch.Log = g.log
		logs = []TxLog{launch}
		st.SetTxFlag(true)
	}
	env.PersistKernelBegin()
	if abortAfterOps >= 0 {
		env.Ctx.Dev.SetAbortCheck(func(op int64) bool { return op >= abortAfterOps })
	}
	err := st.Mutate(false, len(b.setKeys), launch)
	if err == nil {
		err = st.Mutate(true, len(b.delKeys), launch)
	}
	crashed := false
	if abortAfterOps >= 0 {
		crashed = true
		env.Ctx.Dev.SetAbortCheck(nil)
	}
	if err != nil {
		return err
	}
	if !crashed {
		st.Get(len(b.getKeys))
	}
	env.PersistKernelEnd()
	if crashed {
		return nil
	}
	totalOps := len(b.setKeys) + len(b.getKeys) + len(b.delKeys)
	st.HostServe(totalOps)
	if err := st.Commit(logs, b.setKeys, b.delKeys); err != nil {
		return err
	}
	env.CountOps(int64(totalOps))
	return nil
}

// commitModel applies batch bi to the host model.
func (g *GpKVS) commitModel(bi int) {
	b := &g.work[bi]
	g.store.ApplyModel(g.model, b.setKeys, b.setVals, b.delKeys)
	g.committed = bi + 1
}

// Verify implements workloads.Workload: the DURABLE store must equal the
// model after the last committed batch, and the last batch's GETs must have
// returned the modeled values.
func (g *GpKVS) Verify(env *workloads.Env) error {
	if err := g.store.CheckDurable(g.model); err != nil {
		return fmt.Errorf("kvs: %w", err)
	}
	// GET results of the last batch (volatile check; GETs do not persist,
	// so there is nothing to compare after a crash).
	if g.committed > 0 && !g.crashed {
		b := &g.work[g.committed-1]
		for i, got := range g.store.GetResults(len(b.getExpect)) {
			if want := b.getExpect[i]; got != want {
				return fmt.Errorf("kvs: GET[%d] = %d, want %d", i, got, want)
			}
		}
	}
	return nil
}

// RunUntilCrash implements workloads.Crasher: commit some batches, then
// crash mid-transaction in the next one (worst case: just before commit,
// §6.2).
func (g *GpKVS) RunUntilCrash(env *workloads.Env, abortAfterOps int64) error {
	if !env.Mode.UsesGPM() {
		return fmt.Errorf("kvs: crash study requires a GPM mode")
	}
	g.crashed = true
	for bi := 0; bi < g.batches-1; bi++ {
		if err := g.runBatch(env, bi, -1); err != nil {
			return err
		}
		g.commitModel(bi)
	}
	return g.runBatch(env, g.batches-1, abortAfterOps)
}

// Recover implements workloads.Crasher: if the durable transaction flag is
// set, launch the Fig 6b recovery kernel to undo the partial batch.
func (g *GpKVS) Recover(env *workloads.Env) error {
	start := env.Ctx.Timeline.Total()
	if !g.store.TxFlagSet() {
		// Nothing to undo, but a crash inside the last commit's log
		// truncation may have left its entries behind.
		g.store.Truncate(TxLog{Grid: g.blocks, Log: g.log})
		return nil
	}
	log, err := env.Ctx.LogOpen("/pm/kvs.log")
	if err != nil {
		return err
	}
	g.log = log
	if _, err := g.store.Undo(TxLog{Grid: g.blocks, Log: log}); err != nil {
		return err
	}
	g.store.SetTxFlag(false)
	env.AddRestore(env.Ctx.Timeline.Total() - start)
	return nil
}
