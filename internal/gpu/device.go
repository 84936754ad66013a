// Package gpu is a functional model of a CUDA-class GPU: grids of
// threadblocks of 32-lane warps, a hardware write coalescer, block barriers,
// scoped memory fences, and device memory, executing real Go code per thread
// while a deterministic timing engine accounts simulated time.
//
// Execution model. The execution unit is the threadblock: each block runs
// on one hub goroutine, executing its threads as an inner loop in ascending
// thread-ID order between synchronization points; only threads that park
// at a barrier or atomic continue on a pooled coroutine (see Block). Blocks
// are scheduled over a worker window and grouped into waves of at most
// NumSMs×MaxBlocksPerSM resident blocks, like hardware occupancy. Each
// warp keeps one SIMT step per lockstep position: a lane's i-th operation
// since the last flush folds into the warp's i-th step as it issues, and
// that is where the 128-byte hardware coalescer merges the lanes' accesses
// into transactions. At each block barrier and at block exit the block
// flushes: each warp's simulated clock advances through its steps in order.
// A kernel's elapsed time is
// the maximum of its critical path (slowest warp, summed over waves), the
// bandwidth bounds of PM/PCIe/HBM, the PCIe outstanding-transaction bound,
// and any software serialization (e.g. lock-based logging).
package gpu

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/gpm-sim/gpm/internal/memsys"
	"github.com/gpm-sim/gpm/internal/sim"
	"github.com/gpm-sim/gpm/internal/telemetry"
)

// ErrCrashed is the panic value used internally to unwind kernel threads
// when the fault injector fires; Launch recovers it and reports
// Result.Crashed.
var ErrCrashed = fmt.Errorf("gpu: kernel aborted by injected crash")

// Device is one simulated GPU attached to a memory space.
type Device struct {
	Params *sim.Params
	Space  *memsys.Space

	resMu    sync.Mutex
	resNames []string
	resIDs   map[string]uint32

	// blockPool recycles Block execution units (threads, warps, scratch
	// buffers, channels) within and across launches. Pool order is
	// nondeterministic, but acquireBlock resets every simulation-visible
	// field, so which physical Block serves which block ID cannot affect
	// results.
	blockPool sync.Pool

	// workers overrides the spawn window, the number of blocks running on
	// host goroutines while a wave is being spawned; <= 0 means GOMAXPROCS. Simulated results are
	// identical for every value (see engine.go).
	workers int

	abortEnabled atomic.Bool
	abortCheck   func(op int64) bool
	aborted      atomic.Bool

	// opBase/opHigh track canonical operation indices across launches:
	// every thread operation gets the index
	//
	//	opBase + (localOp-1)*gridThreads + globalID + 1
	//
	// — a deterministic function of program position, not of scheduling.
	// opBase advances by maxLocalOps*gridThreads per launch; opHigh is the
	// highest index any thread actually executed (ObservedOps). Host-serial
	// access only.
	opBase int64
	opHigh int64

	// powerFailOnAbort makes the abort instant authoritative: the moment
	// the check fires, the space's power-failure latch is set so that no
	// code — GPU threads racing to their next crash check, or host code
	// that is unaware it is "dead" — can persist anything afterwards. Used
	// for crashes injected during recovery, where the recovery procedures
	// are not written to be abort-aware.
	powerFailOnAbort atomic.Bool

	// Telemetry sinks; nil (no-op) until AttachTelemetry. They observe the
	// already-computed kernel results, so attaching them cannot perturb
	// simulated time (see determinism_test.go).
	telKernels      *telemetry.Counter
	telKernelUS     *telemetry.Histogram
	telPMWriteBytes *telemetry.Counter
	telPMReadBytes  *telemetry.Counter
	telHostBytes    *telemetry.Counter
	telHBMBytes     *telemetry.Counter
	telFences       *telemetry.Counter
}

// AttachTelemetry mirrors per-kernel aggregate traffic into the registry
// under the gpu.* namespace. Passing a nil registry detaches.
func (d *Device) AttachTelemetry(r *telemetry.Registry) {
	d.telKernels = r.Counter("gpu.kernels")
	d.telKernelUS = r.Histogram("gpu.kernel_us", telemetry.LatencyBucketsUS)
	d.telPMWriteBytes = r.Counter("gpu.pm_write_bytes")
	d.telPMReadBytes = r.Counter("gpu.pm_read_bytes")
	d.telHostBytes = r.Counter("gpu.host_bytes")
	d.telHBMBytes = r.Counter("gpu.hbm_bytes")
	d.telFences = r.Counter("gpu.fences")
}

// New returns a device over the given space.
func New(space *memsys.Space) *Device {
	return &Device{
		Params: space.Params,
		Space:  space,
		resIDs: make(map[string]uint32),
	}
}

// ResourceID interns a serialization resource name (see Thread.Serialize).
func (d *Device) ResourceID(name string) uint32 {
	d.resMu.Lock()
	defer d.resMu.Unlock()
	if id, ok := d.resIDs[name]; ok {
		return id
	}
	id := uint32(len(d.resNames))
	d.resNames = append(d.resNames, name)
	d.resIDs[name] = id
	return id
}

func (d *Device) resourceName(id uint32) string {
	d.resMu.Lock()
	defer d.resMu.Unlock()
	if int(id) < len(d.resNames) {
		return d.resNames[id]
	}
	return fmt.Sprintf("resource-%d", id)
}

// SetWorkers overrides the spawn window, the number of blocks running on
// host goroutines while a wave is being spawned (after an atomic round all
// woken blocks resume at once); n <= 0 restores the default (GOMAXPROCS). The
// window never affects simulated results: 1 is the determinism reference
// and every larger window must reproduce it bit-identically. It is a test
// and measurement hook (see workloads.WithWorkers); users who want fewer
// cores set GOMAXPROCS.
func (d *Device) SetWorkers(n int) { d.workers = n }

// spawnWindow is the SetWorkers override, else GOMAXPROCS.
func (d *Device) spawnWindow() int {
	if d.workers > 0 {
		return d.workers
	}
	return runtime.GOMAXPROCS(0)
}

// SetAbortCheck installs a fault-injection hook: check is called with each
// operation's canonical index — a deterministic function of the operation's
// program position, identical for every spawn window — and a true return
// aborts that thread at that operation (the NVBitFI analog, §6.2). Checks
// are expected to be monotone thresholds (op >= K): each thread then
// executes exactly its operations with index < K, so the crash lands at the
// same canonical instant on every run. check must be safe for concurrent
// use. Pass nil to disable. Installing a hook also clears any previous
// aborted state and restarts the canonical index space.
func (d *Device) SetAbortCheck(check func(op int64) bool) {
	d.abortCheck = check
	d.opBase = 0
	d.opHigh = 0
	d.aborted.Store(false)
	d.abortEnabled.Store(check != nil)
}

// ObservedOps returns the highest canonical operation index executed since
// the last SetAbortCheck (used to pick crash points: install a never-firing
// check, run once, and read the total).
func (d *Device) ObservedOps() int64 { return d.opHigh }

// Aborted reports whether the abort check has fired since the last
// SetAbortCheck. Campaign drivers use it to distinguish "recovery finished
// before the re-crash budget" from "the injected crash fired".
func (d *Device) Aborted() bool { return d.aborted.Load() }

// SetPowerFailOnAbort arms (or disarms) power-failure semantics for the
// next abort: when the check fires, the memory space's persist paths shut
// off until the crash is simulated, so nothing issued after the failure
// instant can become durable.
func (d *Device) SetPowerFailOnAbort(on bool) { d.powerFailOnAbort.Store(on) }

// blockOutcome is what Launch needs from a retired block. finish writes it
// before recycling the Block, so outcomes survive pooling.
type blockOutcome struct {
	crit     sim.Duration
	maxLocal int64 // highest per-thread operation count
	maxExec  int64 // highest canonical index executed
	minAbort int64 // lowest canonical index aborted at; 0 = none
}

// acquireBlock readies a Block execution unit for one (launch, block ID)
// assignment, recycling a pooled Block when its geometry matches. Every
// simulation-visible field is reset; shared memory is dropped (not reused)
// so kernels observe the same zeroed arena a fresh Block would give them.
func (d *Device) acquireBlock(eng *engine, id, grid, tpb int, kern func(*Thread),
	st *kernelStats, out *blockOutcome, wg *sync.WaitGroup) *Block {
	var b *Block
	if v := d.blockPool.Get(); v != nil {
		b = v.(*Block)
		if b.nthreads != tpb {
			b = nil // wrong geometry; rebuild
		}
	}
	if b == nil {
		b = d.newBlock(tpb)
	}
	b.eng, b.id, b.grid, b.kern = eng, id, grid, kern
	b.stats, b.out, b.wg = st, out, wg
	b.live, b.arrived, b.nAtomic = tpb, 0, 0
	b.shared = nil
	b.ready = b.ready[:0]
	b.readyHead = 0
	for i := 0; i < tpb; i++ {
		b.ready = append(b.ready, int32(i))
	}
	for _, w := range b.warps {
		w.clock = 0 // steps and step counters are reset by flush itself
	}
	for _, t := range b.threads {
		t.state = tsNew
		t.opIdx, t.lastExec, t.abortedAt = 0, 0, 0
		t.curSeq = 0
		t.dirty = t.dirty[:0]
	}
	return b
}

// newBlock builds a Block with its threads and warps for one geometry.
func (d *Device) newBlock(tpb int) *Block {
	ws := d.Params.WarpSize
	if ws <= 0 {
		ws = 32
	}
	nWarps := (tpb + ws - 1) / ws
	b := &Block{
		dev:      d,
		nthreads: tpb,
		warps:    make([]*warp, nWarps),
		threads:  make([]*Thread, tpb),
		wake:     make(chan struct{}, 1),
	}
	for i := range b.warps {
		b.warps[i] = new(warp)
	}
	for tid := 0; tid < tpb; tid++ {
		b.threads[tid] = &Thread{
			blk:  b,
			id:   tid,
			warp: b.warps[tid/ws],
			lane: tid % ws,
		}
	}
	return b
}

// Result reports one kernel execution.
type Result struct {
	// Elapsed is the simulated kernel duration.
	Elapsed sim.Duration
	// Crashed reports that the fault injector aborted the kernel.
	Crashed bool
	// Stats are the kernel's aggregate memory statistics.
	Stats Stats
}

// Launch runs a 1-D grid of blocks×threadsPerBlock threads, executing kern
// for every thread, and returns the simulated execution result. It blocks
// until the kernel completes (cudaDeviceSynchronize semantics).
//
// Once the abort check has fired, a launch runs no thread; it reports each
// one unwinding at its first operation (Crashed, bare launch overhead, one
// op reserved per thread). So no kernel code, Compute or Serialize runs
// after the abort instant, and none may matter: CrashWith cuts the image at
// that instant, and an aborted recovery is power-failed.
func (d *Device) Launch(name string, blocks, threadsPerBlock int, kern func(*Thread)) Result {
	if blocks <= 0 || threadsPerBlock <= 0 {
		panic(fmt.Sprintf("gpu: invalid grid %dx%d for kernel %s", blocks, threadsPerBlock, name))
	}
	if threadsPerBlock > 1024 {
		panic(fmt.Sprintf("gpu: threadsPerBlock %d exceeds 1024 for kernel %s", threadsPerBlock, name))
	}
	tpb := threadsPerBlock
	eng := newEngine(d, blocks*tpb)

	concurrent := d.Params.MaxConcurrentBlocks()
	waves := (blocks + concurrent - 1) / concurrent
	window := d.spawnWindow()

	blockStats := make([]*kernelStats, blocks)
	outcomes := make([]blockOutcome, blocks)

	// Blocks execute one wave of resident blocks at a time (hardware
	// occupancy), each block on its own scheduler goroutine; the spawn
	// window bounds how many run at once. The engine's quiescence protocol
	// keeps atomics and fault injection deterministic for any window size;
	// everything below the wave loop is a serial reduction in block-ID
	// order. A dead launch (see above) runs no block and fills in outcomes.
	dead := eng.abortEnabled && eng.alreadyAborted
	for b := 0; dead && b < blocks; b++ {
		blockStats[b] = newStats()
		outcomes[b] = blockOutcome{maxLocal: 1, minAbort: eng.opBase + int64(b*tpb) + 1}
	}
	for w := 0; w < waves && !dead; w++ {
		lo, hi := w*concurrent, (w+1)*concurrent
		if hi > blocks {
			hi = blocks
		}
		eng.beginWave(hi - lo)
		var wg sync.WaitGroup
		for b := lo; b < hi; b++ {
			eng.awaitSpawnSlot(window)
			blockStats[b] = newStats()
			blk := d.acquireBlock(eng, b, blocks, tpb, kern, blockStats[b], &outcomes[b], &wg)
			wg.Add(1)
			go blk.runScheduler()
		}
		wg.Wait()
	}

	agg := newStats()
	for _, st := range blockStats {
		agg.mergeFrom(st)
	}
	crit := d.Params.KernelLaunch
	for w := 0; w < waves; w++ {
		lo, hi := w*concurrent, (w+1)*concurrent
		if hi > blocks {
			hi = blocks
		}
		var waveMax sim.Duration
		for b := lo; b < hi; b++ {
			if outcomes[b].crit > waveMax {
				waveMax = outcomes[b].crit
			}
		}
		crit += waveMax
	}

	// Canonical-index bookkeeping: advance the op and PM-sequence windows
	// past everything this launch could have issued, and pin the
	// power-failure instant (if armed) to the first aborted operation.
	var maxLocal, maxExec int64
	minAbort := int64(math.MaxInt64)
	for i := range outcomes {
		o := &outcomes[i]
		if o.maxLocal > maxLocal {
			maxLocal = o.maxLocal
		}
		if o.maxExec > maxExec {
			maxExec = o.maxExec
		}
		if o.minAbort != 0 && o.minAbort < minAbort {
			minAbort = o.minAbort
		}
	}
	d.opBase = eng.opBase + maxLocal*eng.gridThreads
	if maxExec > d.opHigh {
		d.opHigh = maxExec
	}
	d.Space.SeqAdvance(eng.seqBase + uint64(maxLocal)*uint64(eng.gridThreads))
	if minAbort != math.MaxInt64 && d.powerFailOnAbort.Load() && !d.Space.PowerFailed() {
		// The latch must precede the exit drain: the buffered LLC events
		// span the whole kernel, and only those sequenced at or before the
		// failure instant may persist. Every executed operation has
		// canonical index < minAbort, hence sequence <= cut: legitimate
		// pre-crash writes stay eligible for the fault models, everything
		// after the failure instant rolls back unconditionally.
		d.Space.PowerFailAtSeq(eng.seqBase + uint64(minAbort-eng.opBase) - 1)
	}
	d.Space.DrainPersistence()

	res := Result{Stats: agg.snapshot(d)}
	res.Crashed = d.aborted.Load()
	res.Elapsed = d.elapsed(crit, &res.Stats)

	// Merge kernel PM write pattern/traffic into the device-wide stats
	// used for Fig 12 and the PCIe counters.
	d.Space.PM.WriteStats.Merge(&agg.pmWrites)
	d.Space.Link.RecordUp(res.Stats.PMWriteBytes+res.Stats.HostWriteBytes,
		res.Stats.PMWriteTxns+res.Stats.HostTxns)
	d.Space.Link.RecordDown(res.Stats.PMReadBytes+res.Stats.HostReadBytes, res.Stats.PMReadTxns)

	d.telKernels.Inc()
	d.telKernelUS.ObserveMicros(res.Elapsed)
	d.telPMWriteBytes.Add(res.Stats.PMWriteBytes)
	d.telPMReadBytes.Add(res.Stats.PMReadBytes)
	d.telHostBytes.Add(res.Stats.HostWriteBytes + res.Stats.HostReadBytes)
	d.telHBMBytes.Add(res.Stats.HBMBytes)
	d.telFences.Add(res.Stats.Fences)
	return res
}

// elapsed combines the critical path with the bandwidth and concurrency
// bounds into the kernel's simulated duration.
func (d *Device) elapsed(crit sim.Duration, st *Stats) sim.Duration {
	p := d.Params
	pmWriteBW := st.pmPattern.EffectiveBandwidth(p)
	e := crit
	e = sim.MaxDuration(e, sim.DurationOfBytes(st.PMWriteBytes, pmWriteBW))
	e = sim.MaxDuration(e, sim.DurationOfBytes(st.PMReadBytes, p.PMReadBandwidth))
	pcieBytes := st.PMWriteBytes + st.PMReadBytes + st.HostWriteBytes + st.HostReadBytes
	e = sim.MaxDuration(e, sim.DurationOfBytes(pcieBytes, p.PCIeBandwidth))
	e = sim.MaxDuration(e, sim.DurationOfBytes(st.HBMBytes, p.HBMBandwidth))
	e = sim.MaxDuration(e, d.Space.Link.ConcurrencyBound(st.PMWriteTxns+st.PMReadTxns+st.HostTxns))
	for _, dur := range st.Serial {
		e = sim.MaxDuration(e, dur)
	}
	return e
}
