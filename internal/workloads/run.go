package workloads

import (
	"fmt"
	"sort"
	"sync"

	"github.com/gpm-sim/gpm/internal/pmem"
	"github.com/gpm-sim/gpm/internal/telemetry"
)

// Option configures one Run invocation. Options compose left to right:
// later options override earlier ones where they overlap (WithConfig
// replaces the whole Config, so place it before field-level options like
// WithTelemetry).
type Option func(*runOptions)

type runOptions struct {
	mode    Mode
	cfg     Config
	plan    *CrashPlan
	workers int
}

// WithMode selects the persistence mode (default GPM).
func WithMode(m Mode) Option {
	return func(o *runOptions) { o.mode = m }
}

// WithConfig replaces the whole workload configuration (default
// DefaultConfig).
func WithConfig(cfg Config) Option {
	return func(o *runOptions) { o.cfg = cfg }
}

// WithTelemetry attaches a telemetry sink: the run gets its own trace
// process lane and its metrics aggregate into the sink's registry.
func WithTelemetry(tel *telemetry.Telemetry) Option {
	return func(o *runOptions) { o.cfg.Telemetry = tel }
}

// WithWorkers overrides the run's GPU spawn window, the number of
// threadblocks running on host goroutines while a wave is being spawned
// (n <= 0 = GOMAXPROCS, the default). Simulated results are identical for every value. It is a hook
// for two callers, not a tuning knob: the bench's gpu.parallel_speedup probe
// (bench/simsuite.go) runs at 1, and the determinism suite
// (internal/experiments) compares 1 with 8.
func WithWorkers(n int) Option {
	return func(o *runOptions) { o.workers = n }
}

// WithCrashPlan turns the run into a crash-recovery study under the given
// adversarial plan (the workload must implement Crasher).
func WithCrashPlan(p CrashPlan) Option {
	return func(o *runOptions) { o.plan = &p }
}

// WithCrashAt is shorthand for a clean single-crash plan at the given
// canonical device-operation index (the original §6.2 / Table 5
// methodology): one crash, clean rollback, no nested recovery crashes.
func WithCrashAt(abortAfterOps int64) Option {
	return WithCrashPlan(CrashPlan{AbortAfterOps: abortAfterOps})
}

// WithFaultModel sets the persistence fault model applied at every crash of
// the run's plan (installing a default single-crash plan if none is set).
// nil means pmem.Clean.
func WithFaultModel(m pmem.FaultModel) Option {
	return func(o *runOptions) {
		if o.plan == nil {
			o.plan = &CrashPlan{}
		}
		o.plan.Fault = m
	}
}

// WithFaultSeed sets the fault model's deterministic seed on the run's plan
// (installing a default plan if none is set).
func WithFaultSeed(seed uint64) Option {
	return func(o *runOptions) {
		if o.plan == nil {
			o.plan = &CrashPlan{}
		}
		o.plan.FaultSeed = seed
	}
}

// ---- Name registry ----

var (
	regMu    sync.Mutex
	registry = map[string]func() Workload{}
)

// Register adds a workload constructor to the name registry under
// mk().Name(), replacing any previous registration. The experiments catalog
// registers the whole GPMbench suite; importing that package (directly or
// via a cmd/ binary) makes every workload reachable through Run by name.
func Register(mk func() Workload) {
	name := mk().Name()
	regMu.Lock()
	registry[name] = mk
	regMu.Unlock()
}

// Names lists the registered workload names, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New instantiates a registered workload by name.
func New(name string) (Workload, error) {
	regMu.Lock()
	mk, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (is the experiments catalog imported?)", name)
	}
	return mk(), nil
}

// ---- Unified entry point ----

// Run executes a registered workload by name on a fresh simulated node and
// returns its report. With no options it runs under GPM with the default
// configuration; options select the mode, configuration, telemetry, and
// (for Crasher workloads) an adversarial crash plan:
//
//	rep, err := workloads.Run("gpKVS",
//	    workloads.WithMode(workloads.CAPmm),
//	    workloads.WithConfig(cfg))
//
//	rep, err := workloads.Run("gpKVS",
//	    workloads.WithCrashAt(30000),
//	    workloads.WithFaultModel(pmem.TornLines{}))
func Run(name string, opts ...Option) (*Report, error) {
	w, err := New(name)
	if err != nil {
		return nil, err
	}
	return RunWorkload(w, opts...)
}

// RunWorkload is Run for an already-constructed Workload instance (callers
// holding custom-configured workloads, e.g. variants not in the registry).
func RunWorkload(w Workload, opts ...Option) (*Report, error) {
	o := runOptions{mode: GPM, cfg: DefaultConfig()}
	for _, opt := range opts {
		opt(&o)
	}
	if o.plan != nil {
		cr, ok := w.(Crasher)
		if !ok {
			return nil, fmt.Errorf("workloads: %s does not support crash injection", w.Name())
		}
		return runWithPlan(cr, o.mode, o.cfg, *o.plan, o.workers)
	}
	return runOne(w, o.mode, o.cfg, o.workers)
}
