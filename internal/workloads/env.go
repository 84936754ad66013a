package workloads

import (
	"fmt"

	"github.com/gpm-sim/gpm/internal/cap"
	"github.com/gpm-sim/gpm/internal/core"
	"github.com/gpm-sim/gpm/internal/fsim"
	"github.com/gpm-sim/gpm/internal/gpu"
	"github.com/gpm-sim/gpm/internal/memsys"
	"github.com/gpm-sim/gpm/internal/sim"
)

// Env is one workload execution environment: a fresh simulated node, the
// selected persistence mode, and metric bookkeeping.
type Env struct {
	Ctx  *gpm.Context
	Cap  *cap.Engine
	Mode Mode
	Cfg  Config
	RNG  *sim.RNG

	opStart   sim.Duration
	pmStart   int64
	statStart sim.AccessSnapshot
	opsDone   int64
	restore   sim.Duration
	ckpt      sim.Duration
	setupTime sim.Duration
}

// NewEnv builds a fresh node for one run.
func NewEnv(mode Mode, cfg Config) *Env {
	params := sim.Default()
	mcfg := memsys.Config{HBMSize: cfg.HBMSize, DRAMSize: cfg.DRAMSize, PMSize: cfg.PMSize}
	if mcfg.HBMSize <= 0 || mcfg.DRAMSize <= 0 || mcfg.PMSize <= 0 {
		mcfg = memsys.DefaultConfig()
	}
	ctx := gpm.NewContext(params, mcfg)
	if mode.EADR() {
		ctx.Space.SetEADR(true)
	}
	return &Env{
		Ctx:  ctx,
		Cap:  cap.New(ctx, cfg.CAPThreads),
		Mode: mode,
		Cfg:  cfg,
		RNG:  sim.NewRNG(cfg.Seed),
	}
}

// BeginOps marks the start of the measured operation region (after setup:
// input generation, one-time loads of read-only data into HBM).
func (e *Env) BeginOps() {
	e.setupTime = e.Ctx.Timeline.Total()
	e.opStart = e.Ctx.Timeline.Total()
	e.pmStart = e.Ctx.Space.PM.BytesWritten()
	e.statStart = e.Ctx.Space.PM.WriteStats.Snapshot()
}

// OpTime is the simulated time spent since BeginOps.
func (e *Env) OpTime() sim.Duration { return e.Ctx.Timeline.Total() - e.opStart }

// PMBytes is the data written to PM since BeginOps (the write-amplification
// numerator/denominator of Table 4).
func (e *Env) PMBytes() int64 { return e.Ctx.Space.PM.BytesWritten() - e.pmStart }

// CountOps adds completed application operations (for throughput).
func (e *Env) CountOps(n int64) { e.opsDone += n }

// AddRestore accounts simulated time spent in recovery (Table 5).
func (e *Env) AddRestore(d sim.Duration) { e.restore += d }

// AddCheckpoint accounts simulated time spent persisting checkpoints (the
// Fig 9 metric for the checkpointing class).
func (e *Env) AddCheckpoint(d sim.Duration) { e.ckpt += d }

// PersistKernelBegin prepares the node for a kernel that persists in-place:
// under GPM this disables DDIO; under GPM-eADR DDIO stays on because the
// LLC is in the persistence domain.
func (e *Env) PersistKernelBegin() {
	if e.Mode == GPM {
		e.Ctx.PersistBegin()
	}
}

// PersistKernelEnd is the matching epilogue.
func (e *Env) PersistKernelEnd() {
	if e.Mode == GPM {
		e.Ctx.PersistEnd()
	}
}

// Report summarizes one run.
type Report struct {
	Workload string
	Class    string
	Mode     Mode

	OpTime    sim.Duration // the measured operation region
	SetupTime sim.Duration // input generation + staging before BeginOps
	TotalTime sim.Duration // including setup
	CkptTime  sim.Duration // time spent persisting checkpoints
	Restore   sim.Duration // recovery time, if a crash was injected
	PMBytes   int64        // bytes written to PM during the op region
	Ops       int64        // application operations completed

	// PMWriteBW is the realized PM write bandwidth over the op region in
	// bytes/second (Fig 12).
	PMWriteBW float64
	// SeqFrac / AlignedFrac describe the PM write access pattern.
	SeqFrac, AlignedFrac float64
}

// Throughput returns operations per second of simulated time.
func (r *Report) Throughput() float64 {
	if r.OpTime <= 0 {
		return 0
	}
	return float64(r.Ops) / r.OpTime.Seconds()
}

// RestoreFraction is restoration latency as a fraction of operation time.
// Following Table 5's definition, operation time includes recurring work
// such as loading data (here: the setup/staging phase) but the restore
// itself is excluded from the denominator.
func (r *Report) RestoreFraction() float64 {
	op := r.OpTime - r.Restore + r.SetupTime
	if op <= 0 {
		return 0
	}
	return float64(r.Restore) / float64(op)
}

// Workload is one GPMbench application.
type Workload interface {
	// Name is the paper's short name (gpKVS, gpDB(I), ..., PS).
	Name() string
	// Class is "transactional", "checkpointing", or "native".
	Class() string
	// Supports reports whether the workload can execute under mode
	// (e.g. most workloads cannot run on GPUfs, §6.1).
	Supports(mode Mode) bool
	// Setup generates inputs and loads read-only data.
	Setup(env *Env) error
	// Run executes the measured operation region under env.Mode.
	Run(env *Env) error
	// Verify functionally checks the results (and, for persistent modes,
	// that the required structures are durable).
	Verify(env *Env) error
}

// Crasher is implemented by workloads that support the §6.2 crash-injection
// study: RunUntilCrash executes with the fault injector armed, Recover runs
// the recovery procedure after Env.Ctx.Crash, and both leave the workload
// in a state Verify accepts.
type Crasher interface {
	Workload
	RunUntilCrash(env *Env, abortAfterOps int64) error
	Recover(env *Env) error
}

// runOne executes a workload under a mode on a fresh environment and
// returns its report. The environment dies with the run, so its node's
// memory is released for the next one.
func runOne(w Workload, mode Mode, cfg Config, workers int) (*Report, error) {
	if !w.Supports(mode) {
		return nil, fmt.Errorf("workloads: %s does not support %s", w.Name(), mode)
	}
	env := NewEnv(mode, cfg)
	env.Ctx.Dev.SetWorkers(workers)
	defer env.Ctx.Space.Release()
	if cfg.Telemetry != nil {
		env.Ctx.AttachTelemetry(cfg.Telemetry, w.Name()+"/"+mode.String())
	}
	if err := w.Setup(env); err != nil {
		return nil, fmt.Errorf("%s/%s setup: %w", w.Name(), mode, err)
	}
	env.BeginOps()
	if err := w.Run(env); err != nil {
		return nil, fmt.Errorf("%s/%s run: %w", w.Name(), mode, err)
	}
	// Snapshot metrics before Verify: verification may itself restore
	// checkpoints or scan PM, which is not part of the measured run.
	rep := report(w, env)
	if err := w.Verify(env); err != nil {
		return nil, fmt.Errorf("%s/%s verify: %w", w.Name(), mode, err)
	}
	return rep, nil
}

func report(w Workload, env *Env) *Report {
	r := &Report{
		Workload:  w.Name(),
		Class:     w.Class(),
		Mode:      env.Mode,
		OpTime:    env.OpTime(),
		SetupTime: env.setupTime,
		TotalTime: env.Ctx.Timeline.Total(),
		CkptTime:  env.ckpt,
		Restore:   env.restore,
		PMBytes:   env.PMBytes(),
		Ops:       env.opsDone,
	}
	if r.OpTime > 0 {
		r.PMWriteBW = float64(r.PMBytes) / r.OpTime.Seconds()
	}
	// Pattern fractions over the op region only (setup writes excluded).
	snap := env.Ctx.Space.PM.WriteStats.Snapshot()
	delta := sim.AccessSnapshot{
		Txns:       snap.Txns - env.statStart.Txns,
		Bytes:      snap.Bytes - env.statStart.Bytes,
		Sequential: snap.Sequential - env.statStart.Sequential,
		Aligned256: snap.Aligned256 - env.statStart.Aligned256,
	}
	r.SeqFrac = delta.SeqFraction()
	r.AlignedFrac = delta.AlignedFraction()
	return r
}

// copyKernelGPU moves n bytes from src to dst with a grid of 16B-chunk
// copy threads (no fences — persistence is the caller's problem).
func copyKernelGPU(env *Env, dst, src uint64, n int64) {
	const chunk = 16
	threads := int((n + chunk - 1) / chunk)
	tpb := 256
	blocks := (threads + tpb - 1) / tpb
	env.Ctx.Launch("ndp-copy", blocks, tpb, func(t *gpu.Thread) {
		off := int64(t.GlobalID()) * chunk
		if off >= n {
			return
		}
		c := int64(chunk)
		if off+c > n {
			c = n - off
		}
		var tmp [chunk]byte
		t.LoadBytes(src+uint64(off), tmp[:c])
		t.StoreBytes(dst+uint64(off), tmp[:c])
	})
}

// GWriteBuffer persists an HBM buffer through the GPUfs path: each block's
// leader gwrite()s a page-aligned chunk, then the file is gfsync()ed.
func GWriteBuffer(env *Env, f *fsim.File, devSrc uint64, fileOff, n int64) error {
	gfs := env.Ctx.GFS
	if _, err := gfs.GOpen(f.Name()); err != nil {
		return err
	}
	const chunk = 1 << 16
	blocks := int((n + chunk - 1) / chunk)
	var gerr error
	env.Ctx.Launch("gpufs-write", blocks, 32, func(t *gpu.Thread) {
		t.SyncBlock() // GPUfs requires block-wide invocation
		if t.ID() != 0 {
			return
		}
		off := int64(t.Block().ID()) * chunk
		c := n - off
		if c > chunk {
			c = chunk
		}
		buf := make([]byte, c)
		for p := int64(0); p < c; p += 4096 {
			q := c - p
			if q > 4096 {
				q = 4096
			}
			t.LoadBytes(devSrc+uint64(off+p), buf[p:p+q])
		}
		if err := gfs.GWrite(t, f, fileOff+off, buf); err != nil {
			gerr = err
		}
	})
	if gerr != nil {
		return gerr
	}
	env.Ctx.Launch("gpufs-sync", 1, 32, func(t *gpu.Thread) {
		t.SyncBlock()
		if t.ID() == 0 {
			gfs.GFsync(t, f)
		}
	})
	return nil
}

// PersistBuffer persists an HBM result buffer to its PM home under any
// CAP-class mode (the post-kernel persistence step that GPM eliminates).
// Under GPM-class modes it is a no-op: the kernel already persisted.
func PersistBuffer(env *Env, f *fsim.File, fileOff int64, devSrc uint64, n int64) error {
	switch env.Mode {
	case CAPfs:
		return env.Cap.PersistFS(f, fileOff, devSrc, n)
	case CAPmm, CAPeADR:
		env.Cap.PersistMM(f.Mmap()+uint64(fileOff), devSrc, n)
		return nil
	case GPMNDP:
		// GPM-NDP: the GPU stores to PM directly (DDIO on), then the CPU
		// flushes. If the data is not already PM-resident, a plain copy
		// kernel moves it first.
		dst := f.Mmap() + uint64(fileOff)
		if devSrc != dst {
			copyKernelGPU(env, dst, devSrc, n)
		}
		env.Cap.FlushOnly(dst, n)
		return nil
	case GPUfs:
		return GWriteBuffer(env, f, devSrc, fileOff, n)
	default:
		return nil
	}
}
