package crash

import (
	"fmt"

	"github.com/gpm-sim/gpm/internal/pmem"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// ShrunkFailure is a minimized, replayable recovery failure: the earliest
// crash point found to still fail, and the smallest prefix of faulted dirty
// lines (FaultLimit; 0 = every dirty line) that still breaks verification
// under the same seed. Replay is the gpmrecover invocation reproducing it.
type ShrunkFailure struct {
	Workload     string `json:"workload"`
	Mode         string `json:"mode"`
	Model        string `json:"model"`
	CrashAt      int64  `json:"crash_at"`
	FaultSeed    uint64 `json:"fault_seed"`
	FaultLimit   int    `json:"fault_limit"`
	RecrashDepth int    `json:"recrash_depth"`
	Replay       string `json:"replay"`
}

// shrinkLimitCap bounds the fault-subset search; campaigns at test scale
// dirty far fewer lines than this.
const shrinkLimitCap = 1 << 12

// smallestFailing binary-searches [lo, hi] for the smallest value fails
// accepts, taking hi as known to fail. Failure is not guaranteed monotone,
// so the result may not fail at all: callers re-confirm it.
func smallestFailing(lo, hi int64, fails func(int64) bool) int64 {
	for lo < hi {
		mid := lo + (hi-lo)/2
		if fails(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Shrink minimizes a failing run record. It binary-searches the smallest
// crash point that still fails verification, then the smallest fault subset
// (a prefix of the dirty lines in write order, via pmem.Subset) that still
// fails at that point. Failure is not guaranteed to be monotone in either
// axis, so the result is best-effort minimal: every reported value was
// re-executed and confirmed failing.
func (c *Campaign) Shrink(mk func() workloads.Crasher, cfg workloads.Config, rec RunRecord) *ShrunkFailure {
	mode, err := workloads.ModeByName(rec.Mode)
	if err != nil {
		return nil
	}
	base, err := pmem.ModelByName(rec.Model)
	if err != nil {
		return nil
	}
	fails := func(crashAt int64, limit int) bool {
		model := base
		if limit > 0 {
			model = pmem.Subset{Base: base, Limit: limit}
		}
		_, runErr := workloads.RunWorkload(mk(), workloads.WithMode(mode), workloads.WithConfig(cfg), workloads.WithCrashPlan(workloads.CrashPlan{
			AbortAfterOps: crashAt,
			Fault:         model,
			FaultSeed:     rec.FaultSeed,
			RecrashDepth:  rec.RecrashDepth,
			RecrashEvery:  c.RecrashEvery,
		}))
		return runErr != nil
	}

	// Phase 1: earliest failing crash point at full fault strength.
	crashAt := smallestFailing(1, rec.CrashAt, func(at int64) bool { return fails(at, 0) })
	if !fails(crashAt, 0) {
		crashAt = rec.CrashAt // non-monotone search missed; keep the known-bad point
	}

	// Phase 2: smallest faulted-line prefix that still fails there.
	limit := 0
	if fails(crashAt, shrinkLimitCap) {
		l := int(smallestFailing(1, shrinkLimitCap, func(m int64) bool { return fails(crashAt, int(m)) }))
		if fails(crashAt, l) {
			limit = l
		}
	}

	s := &ShrunkFailure{
		Workload:     rec.Workload,
		Mode:         rec.Mode,
		Model:        rec.Model,
		CrashAt:      crashAt,
		FaultSeed:    rec.FaultSeed,
		FaultLimit:   limit,
		RecrashDepth: rec.RecrashDepth,
	}
	s.Replay = fmt.Sprintf(
		"gpmrecover -quick -workload %q -mode %s -faultmodel %s -crashat %d -faultseed %d -faultlimit %d -recrash-depth %d",
		s.Workload, s.Mode, s.Model, s.CrashAt, s.FaultSeed, s.FaultLimit, s.RecrashDepth)
	return s
}
