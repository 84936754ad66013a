package workloads

import (
	"fmt"

	"github.com/gpm-sim/gpm/internal/pmem"
)

// CrashPlan is one adversarial crash-recovery schedule: where the power
// fails, what the failure does to unpersisted writes, and whether the power
// fails again while recovery is running. A zero plan (beyond AbortAfterOps)
// reproduces the original §6.2 methodology: one clean crash, one recovery.
type CrashPlan struct {
	// AbortAfterOps is the GPU device-operation index at which the crash
	// fires. 0 crashes at the first operation; a value past the workload's
	// total op count means the run completes and the crash hits whatever
	// is left unpersisted at the end.
	AbortAfterOps int64

	// Fault selects the persistence fault model applied at every crash in
	// this plan (primary and nested). nil means pmem.Clean: all unpersisted
	// lines roll back whole.
	Fault pmem.FaultModel

	// FaultSeed makes the fault model deterministic; nested crashes derive
	// their streams from it so the whole run replays from one seed.
	FaultSeed uint64

	// RecrashDepth injects that many additional crashes while Recover is
	// running (the power failing again mid-recovery). Each nested crash
	// fires after the recovery has executed its re-crash budget of GPU
	// operations; after RecrashDepth crashes, the final recovery runs to
	// completion.
	RecrashDepth int

	// RecrashEvery is the re-crash budget: GPU operations a recovery may
	// execute before the next nested crash fires. <=0 selects a small
	// default. The budget grows with each nested crash so recovery always
	// makes progress (no livelock at a fixed op index).
	RecrashEvery int64
}

// FaultName is the plan's fault model name ("clean" when Fault is nil).
func (p CrashPlan) FaultName() string {
	if p.Fault == nil {
		return "clean"
	}
	return p.Fault.Name()
}

// defaultRecrashEvery is small enough that even the near-free recovery
// paths (a single undo kernel, a checkpoint restore) get interrupted.
const defaultRecrashEvery = 48

// runWithPlan executes a Crasher under an adversarial crash plan: run until
// the planned crash point, fail the power under the plan's fault model,
// then drive recovery — re-failing the power mid-recovery RecrashDepth
// times — and finally verify the recovered state (§6.2 hardened with the
// torn-line/torn-word/reordering semantics of real ADR hardware).
//
// Nested crashes reuse the GPU's abort-check hook: recovery runs with a
// budget of GPU operations, and the moment the budget is exceeded the
// space's persist paths shut off (power has failed), so not even host-side
// recovery code that keeps executing can make state durable after the
// failure instant.
func runWithPlan(w Crasher, mode Mode, cfg Config, plan CrashPlan, workers int) (*Report, error) {
	if !w.Supports(mode) {
		return nil, fmt.Errorf("workloads: %s does not support %s", w.Name(), mode)
	}
	env := NewEnv(mode, cfg)
	env.Ctx.Dev.SetWorkers(workers)
	defer env.Ctx.Space.Release()
	if cfg.Telemetry != nil {
		env.Ctx.AttachTelemetry(cfg.Telemetry, w.Name()+"/"+mode.String()+"/crash")
	}
	if err := w.Setup(env); err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.Name(), err)
	}
	env.BeginOps()
	if err := w.RunUntilCrash(env, plan.AbortAfterOps); err != nil {
		return nil, fmt.Errorf("%s crash run: %w", w.Name(), err)
	}
	env.Ctx.CrashWith(plan.Fault, plan.FaultSeed)
	env.countCrash(cfg, false)

	every := plan.RecrashEvery
	if every <= 0 {
		every = defaultRecrashEvery
	}
	dev := env.Ctx.Dev
	recovered := false
	for depth := 0; depth < plan.RecrashDepth && !recovered; depth++ {
		// Growing budget: depth d may execute (d+1)×every ops, so each
		// retry gets strictly further than the last.
		budget := every * int64(depth+1)
		dev.SetAbortCheck(func(op int64) bool { return op >= budget })
		dev.SetPowerFailOnAbort(true)
		err := w.Recover(env)
		aborted := dev.Aborted()
		dev.SetPowerFailOnAbort(false)
		dev.SetAbortCheck(nil)
		env.countRecovery(cfg)
		if !aborted {
			// Recovery finished inside the budget; its error (if any) is
			// real, not an artifact of the injected crash.
			if err != nil {
				return nil, fmt.Errorf("%s recover (re-crash depth %d): %w", w.Name(), depth, err)
			}
			recovered = true
			break
		}
		// The power failed mid-recovery: whatever Recover did (or returned)
		// after the abort instant is void. Crash again and retry.
		env.Ctx.CrashWith(plan.Fault, nestedSeed(plan.FaultSeed, depth))
		env.countCrash(cfg, true)
	}
	if !recovered {
		if err := w.Recover(env); err != nil {
			return nil, fmt.Errorf("%s recover: %w", w.Name(), err)
		}
		env.countRecovery(cfg)
	}
	rep := report(w, env)
	if err := w.Verify(env); err != nil {
		return nil, fmt.Errorf("%s verify after recovery: %w", w.Name(), err)
	}
	return rep, nil
}

// nestedSeed derives the fault stream for the depth-th nested crash
// (SplitMix-style step so streams don't collide across depths).
func nestedSeed(seed uint64, depth int) uint64 {
	return seed + (uint64(depth)+1)*0x9e3779b97f4a7c15
}

// countCrash bumps the campaign-facing crash counters when telemetry is
// attached (the per-fault line/word counters live on the PM device itself).
func (e *Env) countCrash(cfg Config, nested bool) {
	if cfg.Telemetry == nil {
		return
	}
	r := cfg.Telemetry.Registry()
	r.Counter("crash.injected").Inc()
	if nested {
		r.Counter("crash.recrashes").Inc()
	}
}

// countRecovery bumps the recovery-attempt counter.
func (e *Env) countRecovery(cfg Config) {
	if cfg.Telemetry == nil {
		return
	}
	cfg.Telemetry.Registry().Counter("crash.recovery_attempts").Inc()
}
