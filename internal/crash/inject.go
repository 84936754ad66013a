// Package crash is the NVBitFI analog (§6.2) grown into a recovery
// auditor: it injects crashes at swept or replayed points during GPU
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

	"github.com/gpm-sim/gpm/internal/workloads"
)

// CrashStudyModes are the persistence modes under which the recovery study
// runs: §6.2 evaluates GPM, and GPM-eADR is the projected-hardware variant
// whose drained caches make every crash friendly (a useful control).
var CrashStudyModes = []workloads.Mode{workloads.GPM, workloads.GPMeADR}

// calibCache memoizes CountOps results per (workload, mode). The op count is
// a function of (workload, mode, cfg); the cache lives inside one Campaign,
// which by construction runs with a single Config, so the key can omit it.
// This hoists the sacrificial calibration run out of sweep loops: one run
// per (workload, mode) instead of one per crash point.
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
