// Package gpm is a Go reproduction of "GPM: Leveraging Persistent Memory
// from a GPU" (Pandey, Kamath, Basu — ASPLOS 2022): libGPM, the GPMbench
// workload suite, the CAP baselines, and a full simulated substrate (GPU
// execution model, Optane PM device, LLC/DDIO, PCIe) that stands in for the
// paper's hardware. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
//
// This root package is the public facade: it re-exports libGPM's API
// (persistency primitives, logging, checkpointing) and the pieces needed
// to write kernels against it. The heavy machinery lives in internal/.
//
// A minimal program:
//
//	ctx := gpm.NewContext() // or NewContext(gpm.WithTelemetry(tel, "app"), ...)
//	m, _ := ctx.Map("/pm/data", 4096, true)
//	ctx.PersistBegin()
//	ctx.Launch("k", 1, 32, func(t *gpm.Thread) {
//	    t.StoreU64(m.Addr+uint64(t.GlobalID())*8, 42)
//	    gpm.Persist(t)
//	})
//	ctx.PersistEnd()
package gpm

import (
	core "github.com/gpm-sim/gpm/internal/core"
	"github.com/gpm-sim/gpm/internal/cpusim"
	"github.com/gpm-sim/gpm/internal/crash"
	"github.com/gpm-sim/gpm/internal/gpu"
	"github.com/gpm-sim/gpm/internal/memsys"
	"github.com/gpm-sim/gpm/internal/pmem"
	"github.com/gpm-sim/gpm/internal/sim"
	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// Core libGPM types (§5, Table 2).
type (
	// Context is one simulated node: GPU + CPU + PM + the run's timeline.
	Context = core.Context
	// Mapping is a PM-resident file mapped into the unified address
	// space (gpm_map).
	Mapping = core.Mapping
	// Log is the PM write-ahead log: HCL or conventional (gpmlog_*).
	Log = core.Log
	// Checkpoint is the group-based double-buffered checkpoint facility
	// (gpmcp_*).
	Checkpoint = core.Checkpoint

	// Thread is a GPU thread context inside a kernel.
	Thread = gpu.Thread
	// KernelResult reports one kernel execution.
	KernelResult = gpu.Result
	// CPUThread is a CPU worker inside a host phase.
	CPUThread = cpusim.Thread

	// Params holds every hardware constant of the timing model.
	Params = sim.Params
	// Duration is simulated time in nanoseconds.
	Duration = sim.Duration
	// MemConfig sizes the simulated memory regions.
	MemConfig = memsys.Config

	// Telemetry bundles a metrics registry and a simulated-time span
	// tracer; attach one to a Context to observe a run (README
	// "Observability").
	Telemetry = telemetry.Telemetry
	// MetricsRegistry interns named counters, gauges, and histograms.
	MetricsRegistry = telemetry.Registry
	// Tracer records simulated-time spans for Chrome-trace export.
	Tracer = telemetry.Tracer

	// FaultModel decides the fate of unpersisted PM lines at a power
	// failure (clean rollback, torn lines, torn words, reordering).
	FaultModel = pmem.FaultModel
	// CrashPlan is one adversarial crash-recovery schedule for a workload
	// run (crash point, fault model, nested recovery crashes).
	CrashPlan = workloads.CrashPlan
	// Campaign sweeps a workload's crash-schedule space deterministically,
	// fanning runs over a bounded worker pool (Campaign.Workers).
	Campaign = crash.Campaign
	// CampaignRun is one (workload, mode, model, crash point) record of a
	// campaign sweep.
	CampaignRun = crash.RunRecord
	// CampaignReport aggregates one workload's sweep.
	CampaignReport = crash.WorkloadCampaign
)

// FaultModels returns every built-in persistence fault model (the sweep
// default for Campaign.Models).
func FaultModels() []FaultModel { return pmem.Models() }

// FaultModelByName resolves a fault model from its Name (e.g. "torn-line").
func FaultModelByName(name string) (FaultModel, error) { return pmem.ModelByName(name) }

// NewTelemetry returns an empty Telemetry ready to attach to Contexts.
func NewTelemetry() *Telemetry { return telemetry.New() }

// ContextOption configures NewContext. The zero set of options reproduces
// NewDefaultContext: calibrated Table 3 parameters, default memory sizes, no
// telemetry. The GPU engine alone decides how many threadblocks run on host
// goroutines at once (GOMAXPROCS paces the spawn of each wave); set
// GOMAXPROCS to use fewer cores.
type ContextOption func(*contextConfig)

type contextConfig struct {
	params *Params
	mem    MemConfig
	tel    *Telemetry
	label  string
}

// WithParams selects the timing-model parameter set.
func WithParams(p *Params) ContextOption {
	return func(c *contextConfig) { c.params = p }
}

// WithMemConfig sizes the simulated HBM/DRAM/PM regions.
func WithMemConfig(m MemConfig) ContextOption {
	return func(c *contextConfig) { c.mem = m }
}

// WithTelemetry attaches a telemetry handle; label names the trace process
// lane ("gpm" when empty).
func WithTelemetry(tel *Telemetry, label string) ContextOption {
	return func(c *contextConfig) { c.tel, c.label = tel, label }
}

// NewContext assembles a simulated node. With no options it is
// NewDefaultContext.
func NewContext(opts ...ContextOption) *Context {
	c := contextConfig{params: sim.Default(), mem: memsys.DefaultConfig()}
	for _, o := range opts {
		o(&c)
	}
	ctx := core.NewContext(c.params, c.mem)
	if c.tel != nil {
		label := c.label
		if label == "" {
			label = "gpm"
		}
		ctx.AttachTelemetry(c.tel, label)
	}
	return ctx
}

// NewDefaultContext assembles a node with the calibrated Table 3 defaults.
func NewDefaultContext() *Context { return core.NewDefaultContext() }

// DefaultParams returns the calibrated parameter set.
func DefaultParams() *Params { return sim.Default() }

// Persist is gpm_persist: ensure the calling GPU thread's prior writes are
// durable (a system-scoped fence; requires DDIO disabled via PersistBegin).
func Persist(t *Thread) { core.Persist(t) }
