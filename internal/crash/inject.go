// Package crash is the NVBitFI analog (§6.2) grown into a recovery
// auditor: it injects crashes at chosen or pseudo-random points during GPU
// execution, simulates the power failure under an adversarial persistence
// fault model (torn lines, torn words, reordered persists), optionally
// fails the power again while recovery is running, drives the workload's
// recovery procedure, and verifies the result. Campaign sweeps the whole
// schedule space deterministically; Shrink reduces a failing run to a
// minimal replayable (seed, schedule, model) triple.
package crash

import (
	"fmt"
	"sync"

	"github.com/gpm-sim/gpm/internal/sim"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// CrashStudyModes are the persistence modes under which the recovery study
// runs: §6.2 evaluates GPM, and GPM-eADR is the projected-hardware variant
// whose drained caches make every crash friendly (a useful control).
var CrashStudyModes = []workloads.Mode{workloads.GPM, workloads.GPMeADR}

// Injector drives randomized crash-recovery stress runs.
type Injector struct {
	rng   *sim.RNG
	calib calibCache
}

// NewInjector returns an injector with a deterministic crash-point stream.
func NewInjector(seed uint64) *Injector {
	return &Injector{rng: sim.NewRNG(seed)}
}

// calibCache memoizes CountOps results per (workload, mode). The op count is
// a function of (workload, mode, cfg); the cache lives inside one Injector or
// Campaign, which by construction runs with a single Config, so the key can
// omit it. This hoists the sacrificial calibration run out of sweep loops:
// one run per (workload, mode) instead of one per crash point or per Stress
// call.
type calibCache struct {
	mu sync.Mutex
	m  map[string]int64
}

func (c *calibCache) countOps(mk func() workloads.Crasher, name string, mode workloads.Mode, cfg workloads.Config) (int64, error) {
	key := name + "|" + mode.String()
	c.mu.Lock()
	if n, ok := c.m[key]; ok {
		c.mu.Unlock()
		return n, nil
	}
	c.mu.Unlock()
	n, err := CountOps(mk(), mode, cfg)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]int64)
	}
	c.m[key] = n
	c.mu.Unlock()
	return n, nil
}

// Result reports one stress run.
type Result struct {
	Mode    workloads.Mode
	CrashAt int64 // device-operation index of the injected fault
	Report  *workloads.Report
}

// Stress measures a workload's operation count on a sacrificial instance
// (memoized per (workload, mode) across calls, so repeated stress runs pay
// for calibration once), crashes a fresh instance at a random point in the
// second half of
// execution (so recovery has real state to work with), recovers, verifies,
// and reports. An error means recovery produced incorrect state — the §6.2
// experiment failing.
func (in *Injector) Stress(mk func() workloads.Crasher, mode workloads.Mode, cfg workloads.Config) (*Result, error) {
	total, err := in.calib.countOps(mk, mk().Name(), mode, cfg)
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	if total < 4 {
		return nil, fmt.Errorf("workload too small to crash (only %d ops)", total)
	}
	// Crash in the second half: late enough that transactional workloads
	// are mid-batch and checkpointing ones have a checkpoint to restore.
	crashAt := total/2 + in.rng.Int63n(total/2-1) + 1
	rep, err := workloads.RunWorkload(mk(), workloads.WithMode(mode), workloads.WithConfig(cfg), workloads.WithCrashAt(crashAt))
	if err != nil {
		return nil, err
	}
	return &Result{Mode: mode, CrashAt: crashAt, Report: rep}, nil
}

// StressAll stresses the workload under every crash-study mode it Supports
// and returns one result per mode. The first recovery failure aborts the
// sweep and is returned alongside the results collected so far.
func (in *Injector) StressAll(mk func() workloads.Crasher, cfg workloads.Config) ([]*Result, error) {
	var out []*Result
	w := mk()
	for _, mode := range CrashStudyModes {
		if !w.Supports(mode) {
			continue
		}
		res, err := in.Stress(mk, mode, cfg)
		if err != nil {
			return out, fmt.Errorf("%s under %s: %w", w.Name(), mode, err)
		}
		out = append(out, res)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s supports no crash-study mode", w.Name())
	}
	return out, nil
}

// CountOps runs the workload once under mode with a never-firing abort
// check to learn its total device-operation count (the crash-point space).
func CountOps(w workloads.Crasher, mode workloads.Mode, cfg workloads.Config) (int64, error) {
	if !w.Supports(mode) {
		return 0, fmt.Errorf("workloads: %s does not support %s", w.Name(), mode)
	}
	env := workloads.NewEnv(mode, cfg)
	defer env.Ctx.Space.Release()
	if err := w.Setup(env); err != nil {
		return 0, err
	}
	env.Ctx.Dev.SetAbortCheck(func(int64) bool { return false })
	env.BeginOps()
	if err := w.Run(env); err != nil {
		return 0, err
	}
	n := env.Ctx.Dev.ObservedOps()
	env.Ctx.Dev.SetAbortCheck(nil)
	return n, nil
}
