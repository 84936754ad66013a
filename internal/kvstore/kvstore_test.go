package kvstore

import (
	"testing"

	"github.com/gpm-sim/gpm/internal/workloads"
)

func TestGpKVSModes(t *testing.T) {
	for _, m := range []workloads.Mode{
		workloads.GPM, workloads.CAPfs, workloads.CAPmm,
		workloads.GPMNDP, workloads.GPMeADR, workloads.CAPeADR,
	} {
		t.Run(m.String(), func(t *testing.T) {
			if _, err := workloads.RunWorkload(New(), workloads.WithMode(m), workloads.WithConfig(workloads.QuickConfig())); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGpKVSMixedWorkload(t *testing.T) {
	for _, m := range []workloads.Mode{workloads.GPM, workloads.CAPmm} {
		if _, err := workloads.RunWorkload(NewMixed(), workloads.WithMode(m), workloads.WithConfig(workloads.QuickConfig())); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestGpKVSUnsupportedModes(t *testing.T) {
	for _, m := range []workloads.Mode{workloads.GPUfs, workloads.CPUOnly} {
		if _, err := workloads.RunWorkload(New(), workloads.WithMode(m), workloads.WithConfig(workloads.QuickConfig())); err == nil {
			t.Errorf("gpKVS should not run on %v", m)
		}
	}
}

func TestGpKVSWriteAmplification(t *testing.T) {
	// Table 4: CAP persists the entire store per batch; GPM persists
	// only the updated pairs plus logs (39× in the paper).
	cfg := workloads.QuickConfig()
	g, err := workloads.RunWorkload(New(), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	mm, err := workloads.RunWorkload(New(), workloads.WithMode(workloads.CAPmm), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	wa := float64(mm.PMBytes) / float64(g.PMBytes)
	if wa < 2 {
		t.Errorf("gpKVS write amplification = %.1fx, want substantial (paper: 39x)", wa)
	}
}

func TestGpKVSGPMFasterThanCAP(t *testing.T) {
	cfg := workloads.QuickConfig()
	g, _ := workloads.RunWorkload(New(), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
	fs, err := workloads.RunWorkload(New(), workloads.WithMode(workloads.CAPfs), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if g.OpTime >= fs.OpTime {
		t.Errorf("GPM %v not faster than CAP-fs %v", g.OpTime, fs.OpTime)
	}
}

func TestGpKVSRandomWritePattern(t *testing.T) {
	// §6.1 / Fig 12: KVS updates are sparse and unaligned, so PM sees a
	// random access pattern and low bandwidth.
	r, err := workloads.RunWorkload(New(), workloads.WithMode(workloads.GPM), workloads.WithConfig(workloads.QuickConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if r.SeqFrac > 0.5 {
		t.Errorf("gpKVS writes are %.0f%% sequential; expected random", r.SeqFrac*100)
	}
}

func TestGpKVSCrashRecovery(t *testing.T) {
	// Crash mid-batch just before commit; the recovery kernel must undo
	// the partial batch (Fig 6b).
	r, err := workloads.RunWorkload(New(), workloads.WithMode(workloads.GPM), workloads.WithConfig(workloads.QuickConfig()), workloads.WithCrashAt(40000))
	if err != nil {
		t.Fatal(err)
	}
	if r.Restore <= 0 {
		t.Error("no restoration latency recorded")
	}
}

func TestGpKVSHCLFasterThanConvLog(t *testing.T) {
	// Fig 11a: gpKVS speeds up 3.3× with HCL over conventional logging.
	cfg := workloads.QuickConfig()
	hcl, err := workloads.RunWorkload(New(), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	conv, err := workloads.RunWorkload(&GpKVS{ConvLog: true}, workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if hcl.OpTime >= conv.OpTime {
		t.Errorf("HCL (%v) not faster than conventional logging (%v)", hcl.OpTime, conv.OpTime)
	}
}

func TestCPUKVSStyles(t *testing.T) {
	for _, s := range []Style{StylePmemKV, StyleRocksDB, StyleMatrixKV} {
		t.Run(s.String(), func(t *testing.T) {
			r, err := workloads.RunWorkload(NewCPU(s), workloads.WithMode(workloads.CPUOnly), workloads.WithConfig(workloads.QuickConfig()))
			if err != nil {
				t.Fatal(err)
			}
			if r.Throughput() <= 0 {
				t.Error("no throughput")
			}
		})
	}
}

func TestFig1aOrdering(t *testing.T) {
	// Fig 1a: gpKVS on GPM beats every CPU PM KVS; RocksDB is slowest.
	cfg := workloads.QuickConfig()
	g, err := workloads.RunWorkload(New(), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	pk, _ := workloads.RunWorkload(NewCPU(StylePmemKV), workloads.WithMode(workloads.CPUOnly), workloads.WithConfig(cfg))
	rd, _ := workloads.RunWorkload(NewCPU(StyleRocksDB), workloads.WithMode(workloads.CPUOnly), workloads.WithConfig(cfg))
	mx, _ := workloads.RunWorkload(NewCPU(StyleMatrixKV), workloads.WithMode(workloads.CPUOnly), workloads.WithConfig(cfg))
	if g.Throughput() <= pk.Throughput() || g.Throughput() <= rd.Throughput() || g.Throughput() <= mx.Throughput() {
		t.Errorf("gpKVS %.2f Mops/s should beat CPU KVS (%.2f, %.2f, %.2f)",
			g.Throughput()/1e6, pk.Throughput()/1e6, rd.Throughput()/1e6, mx.Throughput()/1e6)
	}
	if rd.Throughput() >= pk.Throughput() {
		t.Errorf("RocksDB-pmem (%.2f) should be slower than pmemKV (%.2f)",
			rd.Throughput()/1e6, pk.Throughput()/1e6)
	}
}

func TestGpKVSWithDeletes(t *testing.T) {
	// DELETEs are undo-logged transactions like SETs; the durable store
	// must reflect committed deletions exactly.
	w := &GpKVS{DeleteFraction: 0.3}
	r, err := workloads.RunWorkload(w, workloads.WithMode(workloads.GPM), workloads.WithConfig(workloads.QuickConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops == 0 {
		t.Fatal("no ops")
	}
	deleted := 0
	for bi := 1; bi < len(w.work); bi++ {
		deleted += len(w.work[bi].delKeys)
	}
	if deleted == 0 {
		t.Fatal("no deletes generated; the test exercised nothing")
	}
}

func TestGpKVSDeletesUnderCAP(t *testing.T) {
	if _, err := workloads.RunWorkload(&GpKVS{DeleteFraction: 0.25}, workloads.WithMode(workloads.CAPmm), workloads.WithConfig(workloads.QuickConfig())); err != nil {
		t.Fatal(err)
	}
}

func TestGpKVSDeleteCrashRecovery(t *testing.T) {
	// A crash mid-batch with deletes in flight must roll back to the last
	// committed state (deleted keys restored by the undo log).
	r, err := workloads.RunWorkload(&GpKVS{DeleteFraction: 0.3}, workloads.WithMode(workloads.GPM), workloads.WithConfig(workloads.QuickConfig()), workloads.WithCrashAt(40000))
	if err != nil {
		t.Fatal(err)
	}
	if r.Restore <= 0 {
		t.Error("no restore recorded")
	}
}
