package crash

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/gpm-sim/gpm/internal/experiments"
	"github.com/gpm-sim/gpm/internal/gpdb"
	"github.com/gpm-sim/gpm/internal/kvstore"
	"github.com/gpm-sim/gpm/internal/pmem"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// campaignGolden pins each workload's TestCampaignAllWorkloads records: the
// sha256 of their JSON. Crash points, fault seeds and simulated restore
// times all derive from the canonical crash instant, so a host-side change
// to the crash path (thread scheduling, dead launches, load decoding) must
// leave every digest as it is; only a change to what a workload or the
// memory system simulates may move one.
var campaignGolden = map[string]string{
	"gpKVS":   "80b02547e6830cf333132b46ff088d3ed0557cee5257691a8729237e957195af",
	"gpDB(I)": "dd213a2726fb7bfc10879506b76ba544aec8fe1bec87223e3f49f7fe7e090967",
	"gpDB(U)": "16dd991eb0f2a0078c5cb88f4ce3dd0e124055e0bb92030d28cb5ea70995b323",
	"DNN":     "7ab01438804115968861378a27b8a2be00a5e3bf3e3a251b1718f6267e44721f",
	"CFD":     "1b82348f713561b1f3926251674fb185290017dc31113f93052c02ba43a3fed9",
	"BLK":     "2ea310314917f6d4e10152459ded3074c7aea5f5a298bab8e016204e358ce33f",
	"HS":      "6ce0afb5a98be688b93d5374db29b5432167e34d1fa1bea515ba110682ce901e",
	"BFS":     "49b2359aedfabe6145983c4427a32634fb51cb5fe0115f524f58941d02a1ceb6",
	"SRAD":    "5a3cab2d7d8286a0ef0dc6f7f80472635f92175faa6276c7c2183854ebb0dc89",
	"PS":      "d6e4582dbdeac6c93fadb63a8fbe57b05cbd6c2a01301f3a9cb8274b8812907e",
}

// TestCampaignAllWorkloads is the acceptance sweep: every recoverable
// GPMbench workload must survive all four fault models at crash points
// strided across the whole execution, with the power failing twice more
// during each recovery. Any record with a non-empty Err is a recovery bug,
// and the records must match their golden digest.
func TestCampaignAllWorkloads(t *testing.T) {
	cfg := workloads.QuickConfig()
	for _, mk := range append(experiments.Crashers(), experiments.NativeCrashers()...) {
		mk := mk
		t.Run(mk().Name(), func(t *testing.T) {
			t.Parallel()
			// GPM only: adding GPM-eADR doubles the sweep, and the eADR
			// regression this campaign once caught (the power-fail latch
			// bypass) is guarded by TestCampaignEADRTransactional below.
			c := &Campaign{
				Seed:         3,
				MaxPoints:    3,
				RecrashDepth: 2,
				Modes:        []workloads.Mode{workloads.GPM},
			}
			wc, err := c.Run(mk, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(wc.Runs) == 0 {
				t.Fatal("campaign produced no runs")
			}
			for _, r := range wc.Runs {
				if r.Err != "" {
					t.Errorf("%s/%s/%s@%d seed=%d: %s",
						r.Workload, r.Mode, r.Model, r.CrashAt, r.FaultSeed, r.Err)
				}
				if r.CrashAt <= 0 || r.RestoreUS < 0 {
					t.Errorf("%s/%s/%s: odd record: crash at op %d, restore %g us",
						r.Workload, r.Mode, r.Model, r.CrashAt, r.RestoreUS)
				}
			}
			js, err := json.Marshal(wc.Runs)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(js)
			if got, want := hex.EncodeToString(sum[:]), campaignGolden[wc.Workload]; got != want {
				t.Errorf("records digest = %s, want %s", got, want)
			}
		})
	}
}

// TestCampaignEADRTransactional sweeps the transactional workloads under
// GPM-eADR. eADR persists LLC lines the instant they are written, so a
// power-fail latch that only guards explicit flush paths lets post-failure
// recovery writes (e.g. a tx-flag clear) become durable — exactly the bug
// this campaign caught in the seed. Kept separate from the all-workloads
// sweep so the full matrix stays affordable under -race.
func TestCampaignEADRTransactional(t *testing.T) {
	cfg := workloads.QuickConfig()
	mks := []func() workloads.Crasher{
		func() workloads.Crasher { return kvstore.New() },
		func() workloads.Crasher { return gpdb.New(gpdb.Update) },
	}
	for _, mk := range mks {
		mk := mk
		t.Run(mk().Name(), func(t *testing.T) {
			t.Parallel()
			c := &Campaign{
				Seed:         11,
				MaxPoints:    2,
				RecrashDepth: 2,
				Modes:        []workloads.Mode{workloads.GPMeADR},
			}
			wc, err := c.Run(mk, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(wc.Runs) == 0 {
				t.Fatal("campaign produced no runs")
			}
			for _, r := range wc.Runs {
				if r.Err != "" {
					t.Errorf("%s/%s/%s@%d seed=%d: %s",
						r.Workload, r.Mode, r.Model, r.CrashAt, r.FaultSeed, r.Err)
				}
			}
		})
	}
}

// TestCampaignDeterministic replays the same campaign twice and demands
// byte-identical records (same crash points, same seeds, same outcomes).
func TestCampaignDeterministic(t *testing.T) {
	cfg := workloads.QuickConfig()
	mk := func() workloads.Crasher { return kvstore.New() }
	run := func() []RunRecord {
		c := &Campaign{
			Seed:      19,
			MaxPoints: 2,
			Models:    []pmem.FaultModel{pmem.TornLines{}, pmem.Reorder{}},
			Modes:     []workloads.Mode{workloads.GPM},
		}
		wc, err := c.Run(mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return wc.Runs
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same campaign differed:\n%+v\nvs\n%+v", a, b)
	}
}

func TestSweepPoints(t *testing.T) {
	pts := sweepPoints(100, 0, 4)
	want := []int64{25, 50, 75, 100}
	if !reflect.DeepEqual(pts, want) {
		t.Errorf("sweepPoints(100,0,4) = %v, want %v", pts, want)
	}
	pts = sweepPoints(10, 3, 10)
	want = []int64{3, 6, 9}
	if !reflect.DeepEqual(pts, want) {
		t.Errorf("sweepPoints(10,3,10) = %v, want %v", pts, want)
	}
	if got := sweepPoints(1000, 1, 5); len(got) != 5 {
		t.Errorf("downsample kept %d points, want 5", len(got))
	}
	if got := sweepPoints(2, 0, 4); len(got) == 0 {
		t.Error("tiny run produced no crash points")
	}
}

// TestNegativeControlCaught proves the campaign has teeth: the deliberately
// unlogged, unfenced workload must fail verification under the torn models
// but pass under clean rollback (where its bug is invisible).
func TestNegativeControlCaught(t *testing.T) {
	cfg := workloads.QuickConfig()
	c := &Campaign{
		Seed:      5,
		MaxPoints: 3,
		Models:    []pmem.FaultModel{pmem.TornLines{}, pmem.TornWords{}},
	}
	wc, err := c.Run(newBroken, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wc.Failures == 0 {
		t.Fatal("torn-model campaign did not catch the broken workload")
	}
	for _, r := range wc.Runs {
		if r.Err != "" && !strings.Contains(r.Err, "neg:") {
			t.Errorf("unexpected failure kind: %s", r.Err)
		}
	}

	clean := &Campaign{
		Seed:      5,
		MaxPoints: 3,
		Models:    []pmem.FaultModel{pmem.Clean{}},
	}
	wcc, err := clean.Run(newBroken, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wcc.Failures != 0 {
		t.Errorf("clean rollback should mask the missing fences, got %d failures: %+v",
			wcc.Failures, wcc.Runs)
	}
}

// TestShrinkNegativeControl shrinks a negative-control failure and replays
// the minimized triple to confirm it still fails.
func TestShrinkNegativeControl(t *testing.T) {
	cfg := workloads.QuickConfig()
	c := &Campaign{
		Seed:      7,
		MaxPoints: 2,
		Models:    []pmem.FaultModel{pmem.TornLines{}},
	}
	results, err := c.RunAll([]func() workloads.Crasher{newBroken}, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Failures == 0 {
		t.Fatalf("expected failures to shrink, got %+v", results)
	}
	s := results[0].Shrunk
	if s == nil {
		t.Fatal("no shrunk failure reported")
	}
	if s.CrashAt <= 0 || !strings.Contains(s.Replay, "-crashat") {
		t.Errorf("malformed shrunk failure: %+v", s)
	}
	// The minimized triple must still reproduce the failure.
	mode, err := workloads.ModeByName(s.Mode)
	if err != nil {
		t.Fatal(err)
	}
	model, err := pmem.ModelByName(s.Model)
	if err != nil {
		t.Fatal(err)
	}
	var fault pmem.FaultModel = model
	if s.FaultLimit > 0 {
		fault = pmem.Subset{Base: model, Limit: s.FaultLimit}
	}
	_, runErr := workloads.RunWorkload(newBroken(), workloads.WithMode(mode), workloads.WithConfig(cfg), workloads.WithCrashPlan(workloads.CrashPlan{
		AbortAfterOps: s.CrashAt,
		Fault:         fault,
		FaultSeed:     s.FaultSeed,
		RecrashDepth:  s.RecrashDepth,
	}))
	if runErr == nil {
		t.Error("shrunk triple no longer reproduces the failure")
	}
}
