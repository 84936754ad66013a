package crash

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/gpm-sim/gpm/internal/pmem"
	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// Campaign sweeps a workload's crash-schedule space deterministically:
// crash points strided across the whole execution (not just the second
// half), every fault model, every supported crash-study mode, and nested
// crashes injected during recovery. The same Campaign fields + Seed always
// produce the same runs, so any failure is replayable from its record.
type Campaign struct {
	// Seed anchors every derived fault seed; two campaigns with equal
	// fields replay identically.
	Seed uint64

	// Stride crashes at every Stride-th device operation (1, 1+Stride,
	// ...). <=0 derives a stride that yields DefaultPoints evenly spaced
	// crash points from the workload's calibrated op count.
	Stride int64

	// MaxPoints caps the swept crash points per (mode, model) pair; when a
	// stride produces more, the sweep samples them evenly. 0 means
	// DefaultPoints.
	MaxPoints int

	// Models are the fault models to sweep; nil means all of pmem.Models.
	Models []pmem.FaultModel

	// Modes restricts the sweep; nil means every CrashStudyModes entry the
	// workload Supports.
	Modes []workloads.Mode

	// RecrashDepth and RecrashEvery configure nested crashes during
	// recovery (see workloads.CrashPlan).
	RecrashDepth int
	RecrashEvery int64

	// Workers bounds how many campaign runs execute concurrently
	// (0 = GOMAXPROCS, 1 = the serial determinism reference). Every run is
	// fully isolated — its own pmem.Device, core.Context, and (when the
	// Config carries telemetry) its own metrics registry — and results are
	// committed by precomputed run index, so the report, verdicts, and
	// merged metrics are byte-identical for every Workers value.
	Workers int

	calib calibCache // memoized CountOps per (workload, mode); see inject.go
}

// DefaultPoints is the crash-point budget when Stride/MaxPoints are unset.
const DefaultPoints = 4

// RunRecord is one (workload, mode, model, crash point) execution. Err is
// empty for a verified recovery; otherwise the triple (CrashAt, FaultSeed,
// Model) plus the campaign's re-crash settings replays the failure exactly.
type RunRecord struct {
	Workload     string  `json:"workload"`
	Mode         string  `json:"mode"`
	Model        string  `json:"model"`
	CrashAt      int64   `json:"crash_at"`
	FaultSeed    uint64  `json:"fault_seed"`
	RecrashDepth int     `json:"recrash_depth"`
	RestoreUS    float64 `json:"restore_us"`
	Err          string  `json:"error,omitempty"`
}

// WorkloadCampaign aggregates one workload's sweep.
//
// Ownership: a plain value copy aliases the Runs slice and the Shrunk
// pointer — `b := *a` shares both with a. Use Clone for an independent
// copy before mutating or retaining a campaign that others may also hold
// (RunRecord and ShrunkFailure themselves are pure value structs, so
// copying the elements is enough).
type WorkloadCampaign struct {
	Workload string         `json:"workload"`
	TotalOps int64          `json:"total_ops"` // calibrated op count under the first swept mode
	Runs     []RunRecord    `json:"runs"`
	Failures int            `json:"failures"`
	Shrunk   *ShrunkFailure `json:"shrunk,omitempty"`
}

// Clone returns a deep copy of wc: the Runs slice and Shrunk pointer are
// duplicated so mutating the clone (or the original) cannot affect the
// other. A nil receiver returns nil.
func (wc *WorkloadCampaign) Clone() *WorkloadCampaign {
	if wc == nil {
		return nil
	}
	out := *wc
	if wc.Runs != nil {
		out.Runs = make([]RunRecord, len(wc.Runs))
		copy(out.Runs, wc.Runs)
	}
	if wc.Shrunk != nil {
		s := *wc.Shrunk
		out.Shrunk = &s
	}
	return &out
}

func (c *Campaign) models() []pmem.FaultModel {
	if len(c.Models) > 0 {
		return c.Models
	}
	return pmem.Models()
}

func (c *Campaign) modesFor(w workloads.Workload) []workloads.Mode {
	candidates := c.Modes
	if len(candidates) == 0 {
		candidates = CrashStudyModes
	}
	var out []workloads.Mode
	for _, m := range candidates {
		if w.Supports(m) {
			out = append(out, m)
		}
	}
	return out
}

// sweepPoints returns the deterministic crash points for a run of total
// ops: every stride-th op, evenly downsampled to at most max points.
func sweepPoints(total, stride int64, max int) []int64 {
	if total <= 0 {
		return nil
	}
	if max <= 0 {
		max = DefaultPoints
	}
	if stride <= 0 {
		stride = total / int64(max)
		if stride < 1 {
			stride = 1
		}
	}
	var pts []int64
	for p := stride; p <= total; p += stride {
		pts = append(pts, p)
	}
	if len(pts) == 0 {
		pts = []int64{total / 2}
	}
	if len(pts) > max {
		sampled := make([]int64, 0, max)
		for i := 0; i < max; i++ {
			sampled = append(sampled, pts[i*len(pts)/max])
		}
		pts = sampled
	}
	return pts
}

// faultSeed derives a stable per-run seed from the campaign seed and the
// run's coordinates, so each run's fault stream is independent yet
// replayable from the record alone.
func faultSeed(base uint64, workload, mode, model string, crashAt int64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s|%d", workload, mode, model, crashAt)
	return base ^ h.Sum64()
}

// runDesc is one precomputed campaign run: everything needed to execute it
// is decided up front, so execution order cannot influence the report.
type runDesc struct {
	mode workloads.Mode
	plan workloads.CrashPlan
	rec  RunRecord // pre-filled coordinates; outcome fields set by execute
}

// Run sweeps one workload and returns its campaign report. Calibration
// errors (the workload cannot even run under a mode) are returned as
// errors; recovery failures are recorded in the report.
//
// The sweep runs in two phases. Planning is serial: each mode is calibrated
// once (memoized — crash points never re-run the op census), and one base
// plan per (mode, model) pair is specialized per crash point into a flat
// descriptor list. Execution fans the descriptors over Workers goroutines;
// every run builds a fresh isolated node and commits its record by
// descriptor index, so the report is identical for any Workers value.
func (c *Campaign) Run(mk func() workloads.Crasher, cfg workloads.Config) (*WorkloadCampaign, error) {
	w := mk()
	wc := &WorkloadCampaign{Workload: w.Name()}
	modes := c.modesFor(w)
	if len(modes) == 0 {
		return nil, fmt.Errorf("%s supports no crash-study mode", w.Name())
	}
	var descs []runDesc
	for mi, mode := range modes {
		total, err := c.calib.countOps(mk, w.Name(), mode, cfg)
		if err != nil {
			return nil, fmt.Errorf("calibrate %s/%s: %w", w.Name(), mode, err)
		}
		if mi == 0 {
			wc.TotalOps = total
		}
		points := sweepPoints(total, c.Stride, c.MaxPoints)
		for _, model := range c.models() {
			// One base plan per (mode, model); each crash point only
			// specializes the abort index and fault seed.
			base := workloads.CrashPlan{
				Fault:        model,
				RecrashDepth: c.RecrashDepth,
				RecrashEvery: c.RecrashEvery,
			}
			for _, pt := range points {
				plan := base
				plan.AbortAfterOps = pt
				plan.FaultSeed = faultSeed(c.Seed, w.Name(), mode.String(), model.Name(), pt)
				descs = append(descs, runDesc{
					mode: mode,
					plan: plan,
					rec: RunRecord{
						Workload:     w.Name(),
						Mode:         mode.String(),
						Model:        model.Name(),
						CrashAt:      pt,
						FaultSeed:    plan.FaultSeed,
						RecrashDepth: c.RecrashDepth,
					},
				})
			}
		}
	}
	runs, err := c.execute(mk, cfg, descs)
	if err != nil {
		return nil, err
	}
	wc.Runs = runs
	for _, r := range wc.Runs {
		if r.Err != "" {
			wc.Failures++
		}
	}
	return wc, nil
}

// MaxWorkers is the largest campaign run pool (Campaign.Workers,
// ServeCampaign.Workers and the CLIs' -workers flags). Anything past a few
// thousand concurrent runs is certainly a typo'd or miscomputed value (e.g.
// a byte size landing in a worker flag), and accepting it would burn memory
// on goroutine stacks without changing any result.
const MaxWorkers = 4096

// fanOut runs job(i) for every i in [0, n) on a pool of at most workers
// goroutines (<= 0 = GOMAXPROCS). The CLIs validate their -workers flags
// upfront; library callers setting a campaign's Workers directly get the
// same bound here (a pool larger than MaxWorkers is certainly a
// miscomputed value, and one larger than n just idles). Jobs commit their
// results by index, so the outcome is the same for every pool size.
func fanOut(workers, n int, job func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, MaxWorkers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				job(i)
			}
		}()
	}
	wg.Wait()
}

// execute fans the descriptor list over a bounded worker pool. Each run is a
// fully isolated simulated node (NewEnv inside RunWorkload builds a private
// pmem.Device and core.Context), so runs share no mutable state; records
// land at their descriptor index, keeping report order deterministic.
//
// When cfg carries telemetry, each run writes to a private registry and the
// registries merge into the campaign registry in descriptor order after the
// pool drains — counters and histograms sum and the merge order fixes gauge
// last-writer, so the aggregate is byte-identical to a serial sweep.
// Campaign telemetry is metrics-only: per-run trace spans are discarded
// (interleaved traces from concurrent runs would not be meaningful).
func (c *Campaign) execute(mk func() workloads.Crasher, cfg workloads.Config, descs []runDesc) ([]RunRecord, error) {
	recs := make([]RunRecord, len(descs))
	tels := make([]*telemetry.Telemetry, len(descs))
	fanOut(c.Workers, len(descs), func(i int) {
		d := descs[i]
		runCfg := cfg
		if cfg.Telemetry != nil {
			tels[i] = telemetry.New()
			runCfg.Telemetry = tels[i]
		}
		rec := d.rec
		rep, err := workloads.RunWorkload(mk(),
			workloads.WithMode(d.mode),
			workloads.WithConfig(runCfg),
			workloads.WithCrashPlan(d.plan))
		if err != nil {
			rec.Err = err.Error()
		} else {
			rec.RestoreUS = rep.Restore.Seconds() * 1e6
		}
		recs[i] = rec
	})
	if cfg.Telemetry != nil {
		reg := cfg.Telemetry.Registry()
		for _, t := range tels {
			if err := reg.Merge(t.Registry()); err != nil {
				// Every run instruments the same metrics with the same
				// bounds, so a mismatch means the aggregate is corrupt —
				// refuse to report rather than publish bad numbers.
				return nil, fmt.Errorf("crash: merging per-run metrics: %w", err)
			}
		}
	}
	return recs, nil
}

// RunAll sweeps every workload and, when shrink is true, reduces the first
// failure of each failing workload to a minimal replayable triple.
func (c *Campaign) RunAll(mks []func() workloads.Crasher, cfg workloads.Config, shrink bool) ([]*WorkloadCampaign, error) {
	var out []*WorkloadCampaign
	for _, mk := range mks {
		wc, err := c.Run(mk, cfg)
		if err != nil {
			return out, err
		}
		if shrink && wc.Failures > 0 {
			for _, r := range wc.Runs {
				if r.Err != "" {
					wc.Shrunk = c.Shrink(mk, cfg, r)
					break
				}
			}
		}
		out = append(out, wc)
	}
	return out, nil
}
