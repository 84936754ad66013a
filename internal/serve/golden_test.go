package serve

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"github.com/gpm-sim/gpm/internal/obs"
	"github.com/gpm-sim/gpm/internal/pmem"
	"github.com/gpm-sim/gpm/internal/sim"
)

// shardSimDigest pins the simulated clock of a Shard driven through a fixed
// script in every servable mode. The serving benchmark's sim_us_per_unit
// depends on how goroutine timing composes epochs, so this is the check
// that a change to the store left serve's simulated results where they
// were. A mismatch is a behaviour change to find, not a constant to re-pin.
const shardSimDigest uint64 = 0xa794faba5925fa67

// goldenScript is the batch mix: SET/DEL/GET counts per batch, with fills
// that reach every launch geometry of a 128-op shard (1, 2 and 4 blocks).
var goldenScript = []struct{ sets, dels, gets int }{
	{1, 0, 0}, {3, 2, 5}, {20, 10, 30}, {40, 0, 10}, {0, 30, 0},
	{60, 40, 100}, {0, 0, 50}, {100, 20, 128}, {7, 7, 7},
}

// goldenRNG is a fixed LCG so the script never depends on math/rand.
type goldenRNG uint64

func (r *goldenRNG) next(n uint64) uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return (uint64(*r) >> 33) % n
}

// goldenBatch draws one batch: mutations on distinct slots, DELs aimed at
// keys the script may already have set, GETs over the whole key range.
func goldenBatch(sh *Shard, rng *goldenRNG, sets, dels, gets int, round uint64) *Batch {
	b := &Batch{}
	used := map[int]bool{}
	for len(b.SetKeys) < sets || len(b.DelKeys) < dels {
		key := rng.next(700) + 1
		slot := sh.SlotOf(key)
		if used[slot] {
			continue
		}
		used[slot] = true
		if len(b.SetKeys) < sets {
			b.SetKeys = append(b.SetKeys, key)
			b.SetVals = append(b.SetVals, key*31+round)
		} else {
			b.DelKeys = append(b.DelKeys, key)
		}
	}
	for len(b.GetKeys) < gets {
		b.GetKeys = append(b.GetKeys, rng.next(700)+1)
	}
	if round%2 == 1 {
		b.DedupCID = []uint64{round, round + 300}
		b.DedupSeq = []uint64{round * 3, round + 1}
		b.OracleHWM = 1000 * round
	}
	return b
}

type goldenDigest struct{ h hash.Hash64 }

func (d goldenDigest) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	d.h.Write(buf[:])
}

func (d goldenDigest) result(t *testing.T, res *BatchResult, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	d.u64(uint64(res.SimTime))
	d.u64(uint64(res.Ops))
	for _, v := range res.GetVals {
		d.u64(v)
	}
}

// restart folds a recovery: the restore time, then the crash and restart
// audit events (slots at risk, tx flag, geometries replayed, undone slots).
func (d goldenDigest) restart(t *testing.T, sh *Shard, audit *obs.AuditLog, from int, restore sim.Duration) {
	t.Helper()
	d.u64(uint64(restore))
	for _, ev := range audit.Events()[from:] {
		d.h.Write([]byte(ev.Type + "/" + ev.Point))
		d.u64(uint64(ev.AtRisk))
		d.u64(uint64(len(ev.Geometries)))
		for _, g := range ev.Geometries {
			d.u64(uint64(g))
		}
		d.u64(uint64(ev.SlotsRolledBack))
		if ev.TxSet {
			d.u64(1)
		}
	}
	if err := sh.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestShardSimClockGolden(t *testing.T) {
	d := goldenDigest{fnv.New64a()}
	for _, mode := range SupportedModes() {
		sh, err := NewShard(0, ShardConfig{Mode: mode, Sets: 64, MaxBatch: 128, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		audit := obs.NewAuditLog(0)
		sh.SetAudit(audit)
		rng := goldenRNG(uint64(mode) + 1)
		round := uint64(0)
		batch := func(i int) *Batch {
			round++
			s := goldenScript[i%len(goldenScript)]
			return goldenBatch(sh, &rng, s.sets, s.dels, s.gets, round)
		}
		for i := range goldenScript {
			res, err := sh.Apply(batch(i))
			d.result(t, res, err)
		}
		if mode.UsesGPM() {
			for pi, p := range CrashPoints() {
				for depth := 0; depth < 2; depth++ {
					res, err := sh.Apply(batch(pi + depth))
					d.result(t, res, err)
					from := len(audit.Events())
					crashIdx := []int{1, 2, 3, 5, 7, 8, 4, 0}[2*pi+depth] // mutation-bearing
					if err := sh.CrashAt(batch(crashIdx), p, int64(5500+5500*depth)); err != nil {
						t.Fatalf("%s CrashAt(%s): %v", mode, p, err)
					}
					restore, err := sh.RestartWithRecrash(depth, nil, 0)
					if err != nil {
						t.Fatalf("%s restart after %s: %v", mode, p, err)
					}
					d.restart(t, sh, audit, from, restore)
				}
			}
			// An armed plan under a torn-lines fault model with one nested
			// re-crash, fired from Apply.
			sh.SetCrashPlan(&ShardCrashPlan{ApplyIndex: 2, Point: CrashMidKernel, AbortAfterOps: 14000,
				Model: pmem.TornLines{}, FaultSeed: 11, RecrashDepth: 1})
			from := len(audit.Events())
			res, err := sh.Apply(batch(5))
			d.result(t, res, err)
			if _, err := sh.Apply(batch(7)); err == nil {
				t.Fatalf("%s: armed plan did not fire", mode)
			}
			if err := sh.RecoverFromPlan(); err != nil {
				t.Fatal(err)
			}
			d.restart(t, sh, audit, from, 0)
		} else {
			// A power failure between batches: nothing to undo, the mirror
			// reloads from the durable store.
			from := len(audit.Events())
			sh.Env().Ctx.Crash()
			restore, err := sh.Restart()
			if err != nil {
				t.Fatal(err)
			}
			d.restart(t, sh, audit, from, restore)
		}
		for i := range goldenScript {
			res, err := sh.Apply(batch(len(goldenScript) - 1 - i))
			d.result(t, res, err)
		}
		d.u64(uint64(sh.Ops()))
	}
	if got := d.h.Sum64(); got != shardSimDigest {
		t.Errorf("shard simulated-clock digest = %#x, want %#x", got, shardSimDigest)
	}
}
