package gpdb

import (
	"testing"

	"github.com/gpm-sim/gpm/internal/workloads"
)

func TestGpDBModes(t *testing.T) {
	for _, op := range []Op{Insert, Update} {
		for _, m := range []workloads.Mode{
			workloads.GPM, workloads.CAPfs, workloads.CAPmm,
			workloads.GPMNDP, workloads.GPMeADR, workloads.CAPeADR, workloads.CPUOnly,
		} {
			t.Run(New(op).Name()+"/"+m.String(), func(t *testing.T) {
				if _, err := workloads.RunWorkload(New(op), workloads.WithMode(m), workloads.WithConfig(workloads.QuickConfig())); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestGpDBWriteAmplification(t *testing.T) {
	// Table 4: gpDB(I) ~1.27× (contiguous appends, page-rounded),
	// gpDB(U) ~19.9× (whole table ships under CAP).
	cfg := workloads.QuickConfig()
	gi, err := workloads.RunWorkload(New(Insert), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ci, err := workloads.RunWorkload(New(Insert), workloads.WithMode(workloads.CAPmm), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	waI := float64(ci.PMBytes) / float64(gi.PMBytes)
	if waI < 0.9 || waI > 3 {
		t.Errorf("gpDB(I) WA = %.2f, want near 1.27", waI)
	}
	gu, err := workloads.RunWorkload(New(Update), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	cu, err := workloads.RunWorkload(New(Update), workloads.WithMode(workloads.CAPmm), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	waU := float64(cu.PMBytes) / float64(gu.PMBytes)
	if waU < 5 {
		t.Errorf("gpDB(U) WA = %.2f, want large (paper: 19.9)", waU)
	}
	if waU <= waI {
		t.Errorf("update WA (%.1f) must exceed insert WA (%.1f)", waU, waI)
	}
}

func TestGpDBGPMFasterThanCPUAndCAP(t *testing.T) {
	cfg := workloads.QuickConfig()
	for _, op := range []Op{Insert, Update} {
		g, err := workloads.RunWorkload(New(op), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := workloads.RunWorkload(New(op), workloads.WithMode(workloads.CPUOnly), workloads.WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		fs, err := workloads.RunWorkload(New(op), workloads.WithMode(workloads.CAPfs), workloads.WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		// At the quick scale, gpDB(I)'s fixed kernel-launch costs rival
		// the tiny CPU append; allow parity there — the default-scale
		// cpudb experiment asserts the paper's 3.1×/6.9× gaps.
		if float64(g.OpTime) > 1.5*float64(cpu.OpTime) {
			t.Errorf("%s: GPM %v much slower than CPU %v", New(op).Name(), g.OpTime, cpu.OpTime)
		}
		if g.OpTime >= fs.OpTime {
			t.Errorf("%s: GPM %v not faster than CAP-fs %v", New(op).Name(), g.OpTime, fs.OpTime)
		}
	}
}

func TestGpDBInsertSequentialPattern(t *testing.T) {
	// §6.1: gpDB(I) accesses are sequential (new rows are contiguous).
	r, err := workloads.RunWorkload(New(Insert), workloads.WithMode(workloads.GPM), workloads.WithConfig(workloads.QuickConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if r.SeqFrac < 0.5 {
		t.Errorf("gpDB(I) seq fraction %.2f, want sequential", r.SeqFrac)
	}
	u, err := workloads.RunWorkload(New(Update), workloads.WithMode(workloads.GPM), workloads.WithConfig(workloads.QuickConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if u.SeqFrac >= r.SeqFrac {
		t.Errorf("gpDB(U) (%.2f) should be less sequential than gpDB(I) (%.2f)", u.SeqFrac, r.SeqFrac)
	}
}

func TestGpDBCrashRecovery(t *testing.T) {
	for _, op := range []Op{Insert, Update} {
		t.Run(New(op).Name(), func(t *testing.T) {
			r, err := workloads.RunWorkload(New(op), workloads.WithMode(workloads.GPM), workloads.WithConfig(workloads.QuickConfig()), workloads.WithCrashAt(5000))
			if err != nil {
				t.Fatal(err)
			}
			if r.Restore <= 0 {
				t.Error("no restoration latency")
			}
		})
	}
}

func TestGpDBInsertRecoveryCheaperThanUpdate(t *testing.T) {
	// Table 5: gpDB(I) restores in 0.01% of op time (metadata only);
	// gpDB(U) needs 10.4% (undo kernel over the log).
	ri, err := workloads.RunWorkload(New(Insert), workloads.WithMode(workloads.GPM), workloads.WithConfig(workloads.QuickConfig()), workloads.WithCrashAt(5000))
	if err != nil {
		t.Fatal(err)
	}
	ru, err := workloads.RunWorkload(New(Update), workloads.WithMode(workloads.GPM), workloads.WithConfig(workloads.QuickConfig()), workloads.WithCrashAt(5000))
	if err != nil {
		t.Fatal(err)
	}
	if ri.RestoreFraction() >= ru.RestoreFraction() {
		t.Errorf("insert restore (%.4f) should be cheaper than update restore (%.4f)",
			ri.RestoreFraction(), ru.RestoreFraction())
	}
}

func TestGpDBHCLFasterThanConv(t *testing.T) {
	// Fig 11a: gpDB(U) speeds up 6.1× with HCL.
	cfg := workloads.QuickConfig()
	hcl, err := workloads.RunWorkload(New(Update), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	conv, err := workloads.RunWorkload(&GpDB{Op: Update, ConvLog: true}, workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if hcl.OpTime >= conv.OpTime {
		t.Errorf("HCL (%v) should be faster than conventional (%v); the full-size gap is measured by the Fig 11a bench", hcl.OpTime, conv.OpTime)
	}
}
