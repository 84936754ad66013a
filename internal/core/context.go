// Package gpm is libGPM, the paper's GPU persistence library (§5),
// reimplemented over the simulated node: persistency primitives
// (Map/Unmap, PersistBegin/PersistEnd, Persist), GPU-optimized logging
// (Hierarchical Coalesced Logging plus a conventional lock-based log), and
// group-based double-buffered checkpointing.
package gpm

import (
	"github.com/gpm-sim/gpm/internal/cpusim"
	"github.com/gpm-sim/gpm/internal/fsim"
	"github.com/gpm-sim/gpm/internal/gpu"
	"github.com/gpm-sim/gpm/internal/memsys"
	"github.com/gpm-sim/gpm/internal/pmem"
	"github.com/gpm-sim/gpm/internal/sim"
	"github.com/gpm-sim/gpm/internal/telemetry"
)

// Context binds one simulated node: the unified memory space, the GPU, the
// CPU host, the PM filesystem, and the run's timeline. Every libGPM call
// operates on a Context; workloads share one per run.
type Context struct {
	Params   *sim.Params
	Space    *memsys.Space
	Dev      *gpu.Device
	Host     *cpusim.Host
	FS       *fsim.FS
	GFS      *fsim.GPUFS
	Timeline *sim.Timeline

	// Tel is the optional telemetry sink (nil by default: every hook below
	// degrades to a no-op). Attach with AttachTelemetry, never by assigning
	// the field directly, so the hardware models get wired too.
	Tel *telemetry.Telemetry

	// pid identifies this Context's process lane in the trace (0 = untraced).
	pid int

	// persist-epoch tracking for PersistBegin/PersistEnd span pairing.
	persistStart sim.Duration
	persistOpen  bool

	// Cached gpm.* metrics; nil (no-op) until AttachTelemetry.
	telPersistEpochs *telemetry.Counter
	telCheckpoints   *telemetry.Counter
	telCheckpointUS  *telemetry.Histogram
	telRestoreUS     *telemetry.Histogram
	telCrashes       *telemetry.Counter
}

// AttachTelemetry wires the whole node into tel: the Context gets a trace
// process lane named label, and the GPU, PM device, LLC, and PCIe link mirror
// their counters into tel's registry. Passing nil detaches everything.
func (c *Context) AttachTelemetry(tel *telemetry.Telemetry, label string) {
	c.Tel = tel
	c.pid = tel.Tracer().NewProcess(label)
	r := tel.Registry()
	c.Dev.AttachTelemetry(r)
	c.Space.AttachTelemetry(r)
	c.telPersistEpochs = r.Counter("gpm.persist_epochs")
	c.telCheckpoints = r.Counter("gpm.checkpoints")
	c.telCheckpointUS = r.Histogram("gpm.checkpoint_us", telemetry.LatencyBucketsUS)
	c.telRestoreUS = r.Histogram("gpm.restore_us", telemetry.LatencyBucketsUS)
	c.telCrashes = r.Counter("gpm.crashes")
}

// SpanStart returns the current simulated instant for a later SpanEnd. With
// no telemetry attached it returns 0 and SpanEnd discards the span; the
// Timeline read is an observation only and never advances simulated time.
func (c *Context) SpanStart() sim.Duration {
	if c.Tel == nil || c.Tel.Trace == nil {
		return 0
	}
	return c.Timeline.Total()
}

// SpanEnd records a span on track tid from start to the current simulated
// instant. No-op when telemetry is detached.
func (c *Context) SpanEnd(tid int, name, cat string, start sim.Duration) {
	if c.Tel == nil || c.Tel.Trace == nil {
		return
	}
	now := c.Timeline.Total()
	c.Tel.Trace.Record(telemetry.Span{
		Name: name, Cat: cat, PID: c.pid, TID: tid,
		Start: start, Dur: now - start,
	})
}

// NewContext assembles a node with the given parameters and memory sizes.
func NewContext(params *sim.Params, cfg memsys.Config) *Context {
	space := memsys.New(params, cfg)
	fs := fsim.New(space)
	return &Context{
		Params:   params,
		Space:    space,
		Dev:      gpu.New(space),
		Host:     cpusim.NewHost(space),
		FS:       fs,
		GFS:      fsim.NewGPUFS(fs),
		Timeline: sim.NewTimeline(),
	}
}

// NewDefaultContext is NewContext with default parameters and sizes.
func NewDefaultContext() *Context {
	return NewContext(sim.Default(), memsys.DefaultConfig())
}

// Launch runs a kernel and accounts its duration under the given timeline
// segment. It returns the kernel result.
func (c *Context) Launch(segment string, blocks, tpb int, kern func(*gpu.Thread)) gpu.Result {
	start := c.SpanStart()
	res := c.Dev.Launch(segment, blocks, tpb, kern)
	c.Timeline.Add(segment, res.Elapsed)
	c.SpanEnd(telemetry.TrackKernel, segment, "kernel", start)
	return res
}

// RunCPU runs a CPU phase on n threads and accounts its duration under the
// given timeline segment, returning the phase duration.
func (c *Context) RunCPU(segment string, n int, fn func(*cpusim.Thread)) sim.Duration {
	start := c.SpanStart()
	d := c.Host.Run(n, fn)
	c.Timeline.Add(segment, d)
	c.SpanEnd(telemetry.TrackCPU, segment, "cpu", start)
	return d
}

// Crash simulates a whole-node power failure at this instant: volatile
// memory and caches are lost; PM retains exactly what was persisted.
func (c *Context) Crash() {
	c.CrashWith(nil, 0)
}

// CrashWith is Crash under an adversarial persistence fault model: model
// (nil = clean rollback) decides which unpersisted PM writes survive, with
// seed making the outcome deterministic and replayable. It returns what the
// fault injection did to the device.
func (c *Context) CrashWith(model pmem.FaultModel, seed uint64) pmem.CrashStats {
	start := c.SpanStart()
	st := c.Space.CrashWith(model, seed)
	c.telCrashes.Inc()
	c.SpanEnd(telemetry.TrackRecovery, "crash", "crash", start)
	return st
}
