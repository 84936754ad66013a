package finance

import (
	"math"
	"testing"

	"github.com/gpm-sim/gpm/internal/gpu"
	"github.com/gpm-sim/gpm/internal/workloads"
)

func TestBLKModes(t *testing.T) {
	for _, m := range []workloads.Mode{
		workloads.GPM, workloads.CAPfs, workloads.CAPmm,
		workloads.GPMNDP, workloads.GPMeADR, workloads.CAPeADR,
	} {
		t.Run(m.String(), func(t *testing.T) {
			r, err := workloads.RunWorkload(NewBlackScholes(), workloads.WithMode(m), workloads.WithConfig(workloads.QuickConfig()))
			if err != nil {
				t.Fatal(err)
			}
			if r.CkptTime <= 0 {
				t.Error("no checkpoint time")
			}
			if r.Ops == 0 {
				t.Error("no ops counted")
			}
		})
	}
}

func TestBLKUnsupportedModes(t *testing.T) {
	for _, m := range []workloads.Mode{workloads.GPUfs, workloads.CPUOnly} {
		if _, err := workloads.RunWorkload(NewBlackScholes(), workloads.WithMode(m), workloads.WithConfig(workloads.QuickConfig())); err == nil {
			t.Errorf("BLK should not run on %v", m)
		}
	}
}

func TestBLKCheckpointGPMFaster(t *testing.T) {
	cfg := workloads.QuickConfig()
	g, err := workloads.RunWorkload(NewBlackScholes(), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	mm, err := workloads.RunWorkload(NewBlackScholes(), workloads.WithMode(workloads.CAPmm), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if g.CkptTime >= mm.CkptTime {
		t.Errorf("GPM ckpt %v not faster than CAP-mm %v", g.CkptTime, mm.CkptTime)
	}
}

func TestBlackScholesSanity(t *testing.T) {
	// Deep in-the-money call with ~zero time value approaches S-K.
	p := price(100, 50, 0.25)
	if p < 49 || p > 55 {
		t.Errorf("ITM call price %v out of range", p)
	}
	// Far out-of-the-money call is nearly worthless.
	if p := price(10, 100, 0.25); p > 0.5 {
		t.Errorf("OTM call price %v too high", p)
	}
	// CND is a CDF: monotone, 0..1, symmetric.
	if cnd(0) < 0.49 || cnd(0) > 0.51 {
		t.Errorf("cnd(0) = %v", cnd(0))
	}
	if cnd(3) < 0.99 || cnd(-3) > 0.01 {
		t.Error("cnd tails wrong")
	}
	if math.Abs(float64(cnd(1.5)+cnd(-1.5)-1)) > 1e-5 {
		t.Error("cnd not symmetric")
	}
}

func TestBinomialConvergesTowardBlackScholes(t *testing.T) {
	// With many steps the binomial price approaches Black-Scholes.
	bs := price(100, 95, 1.0)
	bin := binomialPrice(100, 95, 1.0, 256)
	if math.Abs(float64(bs-bin)) > 0.5 {
		t.Errorf("binomial %v vs black-scholes %v", bin, bs)
	}
}

func TestBinomialPoorPersistParallelism(t *testing.T) {
	// The paper's §4.3 point: per-persisted-byte, the binomial pattern
	// (one persisting thread per block) is far slower than BLK's
	// all-threads-persist pattern.
	env := workloads.NewEnv(workloads.GPM, workloads.QuickConfig())
	bi := &Binomial{Steps: 32}
	n := 8192
	s := make([]float32, n)
	k := make([]float32, n)
	y := make([]float32, n)
	for i := range s {
		s[i], k[i], y[i] = 100, 95, 1
	}
	elapsed, out, err := bi.PriceOptions(env, s, k, y)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Ctx.Space.Persisted(out, n*4) {
		t.Fatal("binomial results not durable")
	}
	perByte := float64(elapsed) / float64(n*4)
	// BLK-style fully-parallel persistence of the same bytes:
	env2 := workloads.NewEnv(workloads.GPM, workloads.QuickConfig())
	f, _ := env2.Ctx.FS.Create("/pm/flat.out", int64(n)*4, 0)
	env2.Ctx.PersistBegin()
	res := env2.Ctx.Launch("flat", (n+255)/256, 256, func(th *gpu.Thread) {
		i := th.GlobalID()
		if i >= n {
			return
		}
		th.StoreF32(f.Mmap()+uint64(i)*4, 1)
		th.FenceSystem()
	})
	env2.Ctx.PersistEnd()
	flatPerByte := float64(res.Elapsed) / float64(n*4)
	if perByte < 2*flatPerByte {
		t.Errorf("binomial persist cost/byte (%.1f) should far exceed flat pattern (%.1f)",
			perByte, flatPerByte)
	}
}
