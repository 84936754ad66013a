package serve

import (
	"errors"
	"strings"
	"testing"

	"github.com/gpm-sim/gpm/internal/workloads"
)

func quickShard(t *testing.T, mode workloads.Mode) *Shard {
	t.Helper()
	sh, err := NewShard(0, ShardConfig{Mode: mode, Sets: 64, MaxBatch: 64, Seed: 7})
	if err != nil {
		t.Fatalf("NewShard(%s): %v", mode, err)
	}
	return sh
}

// A shard must apply SET/GET/DEL batches transactionally: GETs see the
// batch's own SETs, DELs empty slots, and the durable store always matches
// the committed oracle.
func TestShardApplyAndVerify(t *testing.T) {
	sh := quickShard(t, workloads.GPM)

	res, err := sh.Apply(&Batch{
		SetKeys: []uint64{1, 2, 3},
		SetVals: []uint64{10, 20, 30},
		GetKeys: []uint64{1, 2, 99},
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	want := []uint64{10, 20, 0}
	for i, w := range want {
		if res.GetVals[i] != w {
			t.Errorf("GetVals[%d] = %d, want %d", i, res.GetVals[i], w)
		}
	}
	if res.SimTime <= 0 {
		t.Error("batch consumed no simulated time")
	}
	if err := sh.Verify(); err != nil {
		t.Fatalf("Verify after batch 1: %v", err)
	}

	// Overwrite, delete, and read back in a second batch.
	res, err = sh.Apply(&Batch{
		SetKeys: []uint64{1},
		SetVals: []uint64{11},
		DelKeys: []uint64{2},
		GetKeys: []uint64{1, 2, 3},
	})
	if err != nil {
		t.Fatalf("Apply 2: %v", err)
	}
	want = []uint64{11, 0, 30}
	for i, w := range want {
		if res.GetVals[i] != w {
			t.Errorf("batch2 GetVals[%d] = %d, want %d", i, res.GetVals[i], w)
		}
	}
	if err := sh.Verify(); err != nil {
		t.Fatalf("Verify after batch 2: %v", err)
	}
	if sh.Ops() != 6+5 {
		t.Errorf("Ops = %d, want 11", sh.Ops())
	}
}

// Every supported serving mode must persist acknowledged batches durably.
func TestShardModes(t *testing.T) {
	for _, mode := range SupportedModes() {
		t.Run(mode.String(), func(t *testing.T) {
			sh := quickShard(t, mode)
			for i := uint64(1); i <= 3; i++ {
				_, err := sh.Apply(&Batch{
					SetKeys: []uint64{i, i + 100},
					SetVals: []uint64{i * 7, i * 9},
					GetKeys: []uint64{i},
				})
				if err != nil {
					t.Fatalf("Apply batch %d: %v", i, err)
				}
			}
			if _, err := sh.Apply(&Batch{DelKeys: []uint64{2}}); err != nil {
				t.Fatalf("Apply del: %v", err)
			}
			if err := sh.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Batches violating the one-mutation-per-slot precondition must be
// refused, not applied nondeterministically.
func TestShardRejectsSlotConflict(t *testing.T) {
	sh := quickShard(t, workloads.GPM)
	_, err := sh.Apply(&Batch{SetKeys: []uint64{5, 5}, SetVals: []uint64{1, 2}})
	if err == nil || !strings.Contains(err.Error(), "two mutations") {
		t.Fatalf("conflicting batch: err = %v, want two-mutations error", err)
	}
	// DEL and SET of the same key collide on the same slot too.
	_, err = sh.Apply(&Batch{SetKeys: []uint64{5}, SetVals: []uint64{1}, DelKeys: []uint64{5}})
	if err == nil {
		t.Fatal("SET+DEL same key in one batch should be refused")
	}
}

// Crashing inside an uncommitted batch and restarting must roll the store
// back to the committed oracle (the acknowledged prefix), and the shard
// must keep serving afterwards.
func TestShardCrashRecoverRestart(t *testing.T) {
	for _, mode := range []workloads.Mode{workloads.GPM, workloads.GPMeADR} {
		t.Run(mode.String(), func(t *testing.T) {
			sh := quickShard(t, mode)
			if _, err := sh.Apply(&Batch{
				SetKeys: []uint64{1, 2, 3, 4},
				SetVals: []uint64{10, 20, 30, 40},
			}); err != nil {
				t.Fatalf("committed batch: %v", err)
			}

			// Die inside the next batch: overwrites of committed keys plus
			// fresh inserts, none acknowledged.
			err := sh.CrashAt(&Batch{
				SetKeys: []uint64{1, 2, 50, 51},
				SetVals: []uint64{111, 222, 500, 510},
			}, CrashMidKernel, 3)
			if err != nil {
				t.Fatalf("CrashAt(mid-kernel): %v", err)
			}
			if _, err := sh.Apply(&Batch{GetKeys: []uint64{1}}); err == nil {
				t.Fatal("Apply on a down shard should fail")
			}

			restore, err := sh.Restart()
			if err != nil {
				t.Fatalf("Restart: %v", err)
			}
			if restore <= 0 {
				t.Error("restart consumed no simulated time")
			}
			if err := sh.Verify(); err != nil {
				t.Fatalf("Verify after recovery: %v", err)
			}

			// The recovered mirror must serve the committed values.
			res, err := sh.Apply(&Batch{GetKeys: []uint64{1, 2, 50}})
			if err != nil {
				t.Fatalf("Apply after restart: %v", err)
			}
			want := []uint64{10, 20, 0}
			for i, w := range want {
				if res.GetVals[i] != w {
					t.Errorf("post-recovery GetVals[%d] = %d, want %d", i, res.GetVals[i], w)
				}
			}
		})
	}
}

// Every between-stage crash point must recover to the durability contract:
// an unacknowledged batch leaves no trace (before-kernel, mid-kernel,
// before-commit), while a batch that committed before the crash survives
// with only its acknowledgements lost (before-reply).
func TestShardCrashAtEveryPoint(t *testing.T) {
	for _, p := range CrashPoints() {
		t.Run(p.String(), func(t *testing.T) {
			sh := quickShard(t, workloads.GPM)
			if _, err := sh.Apply(&Batch{
				SetKeys: []uint64{1, 2, 3, 4},
				SetVals: []uint64{10, 20, 30, 40},
			}); err != nil {
				t.Fatalf("committed batch: %v", err)
			}

			err := sh.CrashAt(&Batch{
				SetKeys: []uint64{1, 2, 50},
				SetVals: []uint64{111, 222, 500},
			}, p, 3)
			if err != nil {
				t.Fatalf("CrashAt(%s): %v", p, err)
			}
			if _, err := sh.Apply(&Batch{GetKeys: []uint64{1}}); err == nil {
				t.Fatal("Apply on a down shard should fail")
			}
			restore, err := sh.Restart()
			if err != nil {
				t.Fatalf("Restart: %v", err)
			}
			if restore <= 0 {
				t.Error("restart consumed no simulated time")
			}
			if err := sh.Verify(); err != nil {
				t.Fatalf("Verify after %s recovery: %v", p, err)
			}

			want := []uint64{10, 20, 0} // crash batch rolled back
			if p == CrashBeforeReply {
				want = []uint64{111, 222, 500} // durable; only the acks died
			}
			res, err := sh.Apply(&Batch{GetKeys: []uint64{1, 2, 50}})
			if err != nil {
				t.Fatalf("Apply after restart: %v", err)
			}
			for i, w := range want {
				if res.GetVals[i] != w {
					t.Errorf("post-recovery GetVals[%d] = %d, want %d", i, res.GetVals[i], w)
				}
			}
		})
	}
}

// CrashAt must refuse non-GPM modes, double crashes, and mutation-free
// batches — misuse of the injector should never masquerade as coverage.
func TestShardCrashAtRejections(t *testing.T) {
	cap := quickShard(t, workloads.CAPmm)
	if err := cap.CrashAt(&Batch{SetKeys: []uint64{1}, SetVals: []uint64{1}}, CrashBeforeCommit, 1); err == nil {
		t.Error("CrashAt under CAP-mm should fail")
	}
	sh := quickShard(t, workloads.GPM)
	if err := sh.CrashAt(&Batch{GetKeys: []uint64{1}}, CrashBeforeKernel, 1); err == nil {
		t.Error("CrashAt with no mutations should fail")
	}
	if err := sh.CrashAt(&Batch{SetKeys: []uint64{1}, SetVals: []uint64{1}}, CrashBeforeKernel, 1); err != nil {
		t.Fatalf("first crash: %v", err)
	}
	if err := sh.CrashAt(&Batch{SetKeys: []uint64{2}, SetVals: []uint64{2}}, CrashBeforeKernel, 1); err == nil {
		t.Error("second crash on a down shard should fail")
	}
}

// Recovery only trusts a dedup journal written by the transaction it rolls
// back: after an identified batch commits a client's high-water mark, a
// crashed batch with no request IDs must roll back to that mark, not
// replay the committed batch's journal and erase it.
func TestUnidentifiedCrashKeepsCommittedMarks(t *testing.T) {
	sh := quickShard(t, workloads.GPM)
	if _, err := sh.Apply(&Batch{
		SetKeys: []uint64{1}, SetVals: []uint64{10},
		DedupCID: []uint64{5}, DedupSeq: []uint64{3},
	}); err != nil {
		t.Fatalf("identified batch: %v", err)
	}
	sh.SetCrashPlan(&ShardCrashPlan{ApplyIndex: 1, Point: CrashBeforeCommit})
	_, err := sh.Apply(&Batch{SetKeys: []uint64{2}, SetVals: []uint64{20}})
	var down *ShardDownError
	if !errors.As(err, &down) {
		t.Fatalf("unidentified batch: err = %v, want a planned power failure", err)
	}
	if err := sh.RecoverFromPlan(); err != nil {
		t.Fatalf("RecoverFromPlan: %v", err)
	}
	if got := sh.DedupSnapshot()[5]; got != 3 {
		t.Errorf("client 5 high-water mark = %d after recovery, want 3 (committed)", got)
	}
	if err := sh.Verify(); err != nil {
		t.Fatal(err)
	}
}

// A crash outside any transaction (tx flag clear) must restart cleanly
// with no undo work.
func TestShardCrashBetweenBatches(t *testing.T) {
	sh := quickShard(t, workloads.GPM)
	if _, err := sh.Apply(&Batch{SetKeys: []uint64{9}, SetVals: []uint64{90}}); err != nil {
		t.Fatal(err)
	}
	sh.env.Ctx.Crash()
	sh.down = true
	if _, err := sh.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if err := sh.Verify(); err != nil {
		t.Fatal(err)
	}
	res, err := sh.Apply(&Batch{GetKeys: []uint64{9}})
	if err != nil || res.GetVals[0] != 90 {
		t.Fatalf("GET after clean restart = %v, %v; want 90", res, err)
	}
}

// Unsupported modes must be refused at construction.
func TestShardRejectsUnservableModes(t *testing.T) {
	for _, mode := range []workloads.Mode{workloads.GPUfs, workloads.CPUOnly} {
		if _, err := NewShard(0, ShardConfig{Mode: mode, Sets: 64, MaxBatch: 8}); err == nil {
			t.Errorf("NewShard(%s) should fail", mode)
		}
	}
	// CAP modes cannot crash mid-batch (no in-kernel persistence to log).
	sh := quickShard(t, workloads.CAPmm)
	if err := sh.CrashAt(&Batch{SetKeys: []uint64{1}, SetVals: []uint64{1}}, CrashMidKernel, 1); err == nil {
		t.Error("mid-kernel CrashAt under CAP-mm should fail")
	}
}
