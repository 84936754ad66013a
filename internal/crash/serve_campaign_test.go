package crash

import (
	"reflect"
	"strings"
	"testing"

	"github.com/gpm-sim/gpm/internal/faultnet"
	"github.com/gpm-sim/gpm/internal/obs"
	"github.com/gpm-sim/gpm/internal/pmem"
	"github.com/gpm-sim/gpm/internal/serve"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// The default sweep — every mode x network schedule x PM fault model x
// crash point x apply index — holds the end-to-end serving contract:
// accounting, exactly-once, store/oracle consistency. This is the
// ISSUE-level acceptance run (>= 200 runs).
func TestServeCampaignDefaultSweepHolds(t *testing.T) {
	t.Parallel()
	c := &ServeCampaign{Seed: 42}
	rep, err := c.Run(true)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Runs) < 200 {
		t.Fatalf("default sweep is %d runs, want >= 200", len(rep.Runs))
	}
	if rep.Failures != 0 {
		t.Errorf("failures = %d, want 0 (shrunk: %+v)", rep.Failures, rep.Shrunk)
		for _, r := range rep.Runs {
			if r.Verdict == ServeVerdictFail {
				t.Errorf("  %s/%s/%s/%s@%d: %s", r.Mode, r.Schedule, r.Model, r.Point, r.ApplyIndex, r.Err)
			}
		}
	}
	fired := 0
	for _, r := range rep.Runs {
		// Every fired plan power-fails the shard once and the server
		// recovers it once; telemetry is off, so this is the shard's count.
		want := int64(0)
		if r.PlanFired {
			fired++
			want = 1
		}
		if r.Restarts != want {
			t.Errorf("%s/%s/%s/%s@%d: plan fired %v but %d restarts",
				r.Mode, r.Schedule, r.Model, r.Point, r.ApplyIndex, r.PlanFired, r.Restarts)
		}
		if (r.Verdict == ServeVerdictOK) != r.PlanFired && r.Verdict != ServeVerdictFail {
			t.Errorf("%s/%s/%s/%s@%d: verdict %s with plan fired %v",
				r.Mode, r.Schedule, r.Model, r.Point, r.ApplyIndex, r.Verdict, r.PlanFired)
		}
	}
	if fired < len(rep.Runs)*3/4 {
		t.Errorf("only %d/%d runs reached their crash plan", fired, len(rep.Runs))
	}
	if rep.Identity == "" {
		t.Error("report has no identity hash")
	}
}

// The report is bit-identical regardless of worker count: runs are fully
// isolated, commit by descriptor index, and the identity hashes only
// stable coordinates.
func TestServeCampaignDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	slow, _ := faultnet.ScheduleByName("slow")
	chaos, _ := faultnet.ScheduleByName("chaos")
	sub := func(workers int) *ServeCampaign {
		return &ServeCampaign{
			Seed:      7,
			Modes:     []workloads.Mode{workloads.GPM},
			Schedules: []faultnet.Schedule{slow, chaos},
			Models:    []pmem.FaultModel{pmem.Clean{}, pmem.TornLines{}},
			Points:    []serve.CrashPoint{serve.CrashBeforeKernel, serve.CrashBeforeReply},
			Workers:   workers,
		}
	}
	serial, err := sub(1).Run(false)
	if err != nil {
		t.Fatalf("serial Run: %v", err)
	}
	fanned, err := sub(4).Run(false)
	if err != nil {
		t.Fatalf("fanned Run: %v", err)
	}
	if serial.Identity != fanned.Identity {
		t.Errorf("identity differs across workers: %s vs %s", serial.Identity, fanned.Identity)
	}
	if len(serial.Runs) != len(fanned.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(serial.Runs), len(fanned.Runs))
	}
	for i := range serial.Runs {
		a, b := serial.Runs[i], fanned.Runs[i]
		// Only the stable coordinates must match; counters like retries
		// legitimately vary with scheduling.
		a.Ops, a.GaveUp, a.Errors, a.Retries, a.Reconnects = 0, 0, 0, 0, 0
		a.Restarts, a.NetResets, a.NetDups = 0, 0, 0
		b.Ops, b.GaveUp, b.Errors, b.Retries, b.Reconnects = 0, 0, 0, 0, 0
		b.Restarts, b.NetResets, b.NetDups = 0, 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("run %d differs across workers:\n  serial: %+v\n  fanned: %+v", i, a, b)
		}
	}
}

// Transactions ride the chaos surface: v2 snapshot-isolation clients
// share every run with the v1 plain retry load, and the SI contract —
// accounting, repeatable reads, per-key commit ledger — holds through
// network faults and power failures.
func TestServeCampaignTxnSweepHolds(t *testing.T) {
	t.Parallel()
	clean, _ := faultnet.ScheduleByName("clean")
	chaos, _ := faultnet.ScheduleByName("chaos")
	c := &ServeCampaign{
		Seed:      11,
		Txn:       true,
		Modes:     []workloads.Mode{workloads.GPM},
		Schedules: []faultnet.Schedule{clean, chaos},
		Models:    []pmem.FaultModel{pmem.Clean{}, pmem.TornLines{}},
		Points:    []serve.CrashPoint{serve.CrashBeforeKernel, serve.CrashBeforeReply},
	}
	rep, err := c.Run(true)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Failures != 0 {
		t.Errorf("failures = %d, want 0 (shrunk: %+v)", rep.Failures, rep.Shrunk)
		for _, r := range rep.Runs {
			if r.Verdict == ServeVerdictFail {
				t.Errorf("  %s/%s/%s/%s@%d: %s", r.Mode, r.Schedule, r.Model, r.Point, r.ApplyIndex, r.Err)
			}
		}
	}
	var commits int64
	for _, r := range rep.Runs {
		commits += r.TxnCommits
	}
	if commits == 0 {
		t.Error("no transactions committed anywhere in the sweep")
	}
}

// Negative control: breaking dedup persistence makes the lost-ack retry
// after CrashBeforeReply re-apply, the campaign must catch it, shrink it
// to a replayable tuple, and the replay must still reproduce it.
func TestServeCampaignNegativeControlCaught(t *testing.T) {
	t.Parallel()
	clean, _ := faultnet.ScheduleByName("clean")
	c := &ServeCampaign{
		Seed:         9,
		Modes:        []workloads.Mode{workloads.GPM},
		Schedules:    []faultnet.Schedule{clean},
		Models:       []pmem.FaultModel{pmem.Clean{}},
		Points:       []serve.CrashPoint{serve.CrashBeforeReply},
		ApplyIndices: []int64{2},
		BreakDedup:   true,
	}
	rep, err := c.Run(true)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Failures == 0 {
		t.Fatal("broken dedup persistence was not caught")
	}
	if rep.Shrunk == nil {
		t.Fatal("caught failure was not shrunk")
	}
	if !strings.Contains(rep.Shrunk.Err, "applied more than once") &&
		!strings.Contains(rep.Shrunk.Err, "acked from high-water marks") {
		t.Errorf("shrunk error %q does not name an exactly-once violation", rep.Shrunk.Err)
	}
	if !strings.Contains(rep.Shrunk.Replay, "-break-dedup") {
		t.Errorf("replay command %q lacks -break-dedup", rep.Shrunk.Replay)
	}
	if !strings.HasPrefix(rep.Shrunk.Replay, "gpmchaos -serve") {
		t.Errorf("replay command %q is not a gpmchaos -serve invocation", rep.Shrunk.Replay)
	}
	rec, err := c.ReplayServe(rep.Shrunk)
	if err != nil {
		t.Fatalf("ReplayServe: %v", err)
	}
	if rec.Verdict != ServeVerdictFail {
		t.Errorf("replayed shrunk tuple verdict = %s, want fail (%+v)", rec.Verdict, rec)
	}
}

// Negative control for snapshot isolation: with commit-time conflict
// validation disabled, concurrent RMW increments lose updates. The SI
// ledger must catch it, shrink it to a replayable tuple whose command
// carries -txn -break-si, and the replay must still reproduce it.
func TestServeCampaignBreakSICaught(t *testing.T) {
	t.Parallel()
	clean, _ := faultnet.ScheduleByName("clean")
	c := &ServeCampaign{
		Seed:         13,
		Txn:          true,
		Txns:         64,
		BreakSI:      true,
		Modes:        []workloads.Mode{workloads.GPM},
		Schedules:    []faultnet.Schedule{clean},
		Models:       []pmem.FaultModel{pmem.Clean{}},
		Points:       []serve.CrashPoint{serve.CrashBeforeKernel},
		ApplyIndices: []int64{2},
	}
	rep, err := c.Run(true)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Failures == 0 {
		t.Fatal("broken conflict validation was not caught")
	}
	if rep.Shrunk == nil {
		t.Fatal("caught failure was not shrunk")
	}
	if !strings.Contains(rep.Shrunk.Err, "si ledger") {
		t.Errorf("shrunk error %q does not name an SI ledger violation", rep.Shrunk.Err)
	}
	for _, want := range []string{"-txn", "-break-si"} {
		if !strings.Contains(rep.Shrunk.Replay, want) {
			t.Errorf("replay command %q lacks %s", rep.Shrunk.Replay, want)
		}
	}
	rec, err := c.ReplayServe(rep.Shrunk)
	if err != nil {
		t.Fatalf("ReplayServe: %v", err)
	}
	if rec.Verdict != ServeVerdictFail {
		t.Errorf("replayed shrunk tuple verdict = %s, want fail (%+v)", rec.Verdict, rec)
	}
}

// verifyAuditTrail rejects trails whose replay evidence contradicts the
// injected crash points, and relaxes the before-commit rollback count only
// when nested re-crashes sit between the crash and its restart.
func TestVerifyAuditTrailRejectsMismatch(t *testing.T) {
	injected := []crashRound{{shard: 0, point: serve.CrashBeforeCommit}}
	trail := func(mutate func(evs []obs.AuditEvent) []obs.AuditEvent) []obs.AuditEvent {
		evs := []obs.AuditEvent{
			{Seq: 1, Type: obs.AuditCrash, Shard: 0, Point: "before-commit", AtRisk: 8},
			{Seq: 3, Type: obs.AuditRestart, Shard: 0, TxSet: true, Geometries: []int{1, 2}, SlotsRolledBack: 8},
			{Seq: 4, Type: obs.AuditVerify, Shard: 0, Outcome: "ok"},
		}
		if mutate != nil {
			evs = mutate(evs)
		}
		return evs
	}
	if err := verifyAuditTrail(trail(nil), injected); err != nil {
		t.Fatalf("consistent trail rejected: %v", err)
	}
	recrash := obs.AuditEvent{Seq: 2, Type: obs.AuditCrash, Shard: 0, Point: serve.RecoveryCrashPoint}
	partial := func(e []obs.AuditEvent) []obs.AuditEvent {
		e[1].SlotsRolledBack = 3
		return append(e, recrash)
	}
	if err := verifyAuditTrail(trail(partial), injected); err != nil {
		t.Errorf("partial rollback after a nested re-crash rejected: %v", err)
	}
	for name, mutate := range map[string]func([]obs.AuditEvent) []obs.AuditEvent{
		"wrong rollback count": func(e []obs.AuditEvent) []obs.AuditEvent { e[1].SlotsRolledBack = 3; return e },
		"rollback over risk":   func(e []obs.AuditEvent) []obs.AuditEvent { e[0].AtRisk = 5; return append(e, recrash) },
		"tx flag clear":        func(e []obs.AuditEvent) []obs.AuditEvent { e[1].TxSet = false; return e },
		"wrong crash point":    func(e []obs.AuditEvent) []obs.AuditEvent { e[0].Point = "mid-kernel"; return e },
		"wrong shard":          func(e []obs.AuditEvent) []obs.AuditEvent { e[1].Shard = 7; return e },
		"verify failed":        func(e []obs.AuditEvent) []obs.AuditEvent { e[2].Outcome = "fail"; return e },
		"stray re-crash": func(e []obs.AuditEvent) []obs.AuditEvent {
			r := recrash
			r.Seq = 9
			return append(e, r)
		},
	} {
		if err := verifyAuditTrail(trail(mutate), injected); err == nil {
			t.Errorf("%s: inconsistent trail accepted", name)
		}
	}
	if err := verifyAuditTrail(nil, []crashRound{{shard: 0, point: serve.CrashMidKernel}}); err == nil {
		t.Error("missing events accepted")
	}
}
