package experiments

import (
	"fmt"

	"github.com/gpm-sim/gpm/internal/dnn"
	"github.com/gpm-sim/gpm/internal/gpdb"
	"github.com/gpm-sim/gpm/internal/graph"
	"github.com/gpm-sim/gpm/internal/kvstore"
	"github.com/gpm-sim/gpm/internal/scan"
	"github.com/gpm-sim/gpm/internal/stencil"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// Figure1a reproduces Fig 1a: throughput of batched SETs on the three CPU
// PM key-value stores versus gpKVS on GPM (Mops/s).
func Figure1a(cfg workloads.Config) (*Table, error) {
	t := &Table{Name: "figure1a", Header: []string{"kvs", "throughput_mops", "speedup_of_gpm"}}
	gpm, err := workloads.RunWorkload(kvstore.New(), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
	if err != nil {
		return nil, err
	}
	rows := []struct {
		name  string
		style kvstore.Style
	}{
		{"pmemKV", kvstore.StylePmemKV},
		{"RocksDB-pmem", kvstore.StyleRocksDB},
		{"MatrixKV", kvstore.StyleMatrixKV},
	}
	for _, r := range rows {
		rep, err := workloads.RunWorkload(kvstore.NewCPU(r.style), workloads.WithMode(workloads.CPUOnly), workloads.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		t.Add(r.name, rep.Throughput()/1e6, gpm.Throughput()/rep.Throughput())
	}
	t.Add("GPM-KVS", gpm.Throughput()/1e6, 1.0)
	return t, nil
}

// Figure1b reproduces Fig 1b: speedup of GPM over multi-threaded CPU PM
// applications for BFS, SRAD, and PS.
func Figure1b(cfg workloads.Config) (*Table, error) {
	t := &Table{Name: "figure1b", Header: []string{"workload", "speedup_over_cpu"}}
	mk := []func() workloads.Workload{
		func() workloads.Workload { return graph.New() },
		func() workloads.Workload { return stencil.NewSRAD() },
		func() workloads.Workload { return scan.New() },
	}
	for _, f := range mk {
		g, err := workloads.RunWorkload(f(), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		c, err := workloads.RunWorkload(f(), workloads.WithMode(workloads.CPUOnly), workloads.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		t.Add(g.Workload, float64(c.OpTime)/float64(g.OpTime))
	}
	return t, nil
}

// fig9Modes are the systems compared in Fig 9, normalized to CAP-fs.
var fig9Modes = []workloads.Mode{workloads.CAPmm, workloads.GPM, workloads.GPUfs}

// Figure9 reproduces Fig 9: speedup of CAP-mm, GPM, and GPUfs over CAP-fs
// for every GPMbench workload ("*" marks GPUfs-unsupported workloads, as in
// the paper).
func Figure9(cfg workloads.Config) (*Table, error) {
	t := &Table{Name: "figure9", Header: []string{"workload", "class", "CAP-mm", "GPM", "GPUfs"}}
	for _, mk := range Suite() {
		base, err := workloads.RunWorkload(mk(), workloads.WithMode(workloads.CAPfs), workloads.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		row := []interface{}{base.Workload, base.Class}
		for _, m := range fig9Modes {
			w := mk()
			if !w.Supports(m) {
				row = append(row, "*")
				continue
			}
			rep, err := workloads.RunWorkload(w, workloads.WithMode(m), workloads.WithConfig(cfg))
			if err != nil {
				if m == workloads.GPUfs {
					row = append(row, "*") // fails to execute (§6.1)
					continue
				}
				return nil, err
			}
			row = append(row, opTimeFor(base)/opTimeFor(rep))
		}
		t.Add(row...)
	}
	return t, nil
}

// Table4 reproduces Table 4: write amplification of CAP over GPM.
func Table4(cfg workloads.Config) (*Table, error) {
	t := &Table{Name: "table4", Header: []string{"workload", "class", "write_amplification"}}
	for _, mk := range Suite() {
		g, err := workloads.RunWorkload(mk(), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		c, err := workloads.RunWorkload(mk(), workloads.WithMode(workloads.CAPmm), workloads.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		t.Add(g.Workload, g.Class, float64(c.PMBytes)/float64(g.PMBytes))
	}
	return t, nil
}

// Figure10 reproduces Fig 10: GPM-NDP, GPM, GPM-eADR, and CAP-eADR speedups
// over CAP-fs.
func Figure10(cfg workloads.Config) (*Table, error) {
	t := &Table{Name: "figure10",
		Header: []string{"workload", "class", "GPM-NDP", "GPM", "GPM-eADR", "CAP-eADR"}}
	modes := []workloads.Mode{workloads.GPMNDP, workloads.GPM, workloads.GPMeADR, workloads.CAPeADR}
	for _, mk := range Suite() {
		base, err := workloads.RunWorkload(mk(), workloads.WithMode(workloads.CAPfs), workloads.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		row := []interface{}{base.Workload, base.Class}
		for _, m := range modes {
			rep, err := workloads.RunWorkload(mk(), workloads.WithMode(m), workloads.WithConfig(cfg))
			if err != nil {
				return nil, err
			}
			row = append(row, opTimeFor(base)/opTimeFor(rep))
		}
		t.Add(row...)
	}
	return t, nil
}

// Figure11a reproduces Fig 11a: speedup of HCL over conventional
// distributed logging for the transactional workloads (INSERTs are skipped
// as in the paper — they only log the table size).
func Figure11a(cfg workloads.Config) (*Table, error) {
	t := &Table{Name: "figure11a", Header: []string{"workload", "hcl_speedup"}}
	{
		conv, err := workloads.RunWorkload(&kvstore.GpKVS{ConvLog: true}, workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		hcl, err := workloads.RunWorkload(kvstore.New(), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		t.Add("gpKVS", float64(conv.OpTime)/float64(hcl.OpTime))
	}
	{
		conv, err := workloads.RunWorkload(&gpdb.GpDB{Op: gpdb.Update, ConvLog: true}, workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		hcl, err := workloads.RunWorkload(gpdb.New(gpdb.Update), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		t.Add("gpDB(U)", float64(conv.OpTime)/float64(hcl.OpTime))
	}
	return t, nil
}

// Figure12 reproduces Fig 12: realized PM write bandwidth under GPM per
// workload, with the access-pattern fractions that explain it (§6.1).
func Figure12(cfg workloads.Config) (*Table, error) {
	t := &Table{Name: "figure12",
		Header: []string{"workload", "pm_write_gbps", "seq_frac", "aligned_frac", "max_pcie_gbps"}}
	for _, mk := range Suite() {
		rep, err := workloads.RunWorkload(mk(), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		// Bandwidth over the persist-active window: for checkpointing
		// workloads that is the checkpoint time (the paper measures PM
		// write bandwidth, not compute-diluted averages).
		bw := float64(rep.PMBytes) / (opTimeFor(rep) / 1e9)
		t.Add(rep.Workload, bw/1e9, rep.SeqFrac, rep.AlignedFrac, 13.0)
	}
	return t, nil
}

// Table5 reproduces Table 5: restoration latency as a percentage of
// operation time, crashing just before commit (worst case) for the
// transactional workloads and mid-run for checkpointing ones.
func Table5(cfg workloads.Config) (*Table, error) {
	t := &Table{Name: "table5", Header: []string{"workload", "class", "restore_pct"}}
	for _, mk := range Crashers() {
		w := mk()
		// Calibration run: count device operations so the crash can land
		// near the end of the last transaction (§6.2 worst case).
		total, err := countOps(w, cfg)
		if err != nil {
			return nil, err
		}
		crashAt := total * 9 / 10
		if crashAt < 1 {
			crashAt = 1
		}
		rep, err := workloads.RunWorkload(mk(), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg), workloads.WithCrashAt(crashAt))
		if err != nil {
			return nil, err
		}
		t.Add(rep.Workload, rep.Class, rep.RestoreFraction()*100)
	}
	return t, nil
}

// countOps measures the device-operation count of a full GPM run.
func countOps(w workloads.Workload, cfg workloads.Config) (int64, error) {
	env := workloads.NewEnv(workloads.GPM, cfg)
	if err := w.Setup(env); err != nil {
		return 0, err
	}
	env.Ctx.Dev.SetAbortCheck(func(int64) bool { return false })
	env.BeginOps()
	if err := w.Run(env); err != nil {
		return 0, err
	}
	n := env.Ctx.Dev.ObservedOps()
	env.Ctx.Dev.SetAbortCheck(nil)
	return n, nil
}

// DNNFrequency reproduces the §6.1 DNN study: total-time overhead of
// checkpointing at different frequencies, plus per-checkpoint and restore
// latency.
func DNNFrequency(cfg workloads.Config) (*Table, error) {
	t := &Table{Name: "dnnfreq",
		Header: []string{"ckpt_every", "total_ms", "overhead_pct", "ckpt_ms_each", "restore_ms"}}
	// Baseline: no checkpointing (one checkpoint at the very end).
	base := cfg
	base.DNNCkptEach = cfg.DNNIters
	b, err := workloads.RunWorkload(dnn.New(), workloads.WithMode(workloads.GPM), workloads.WithConfig(base))
	if err != nil {
		return nil, err
	}
	baseCompute := float64(b.OpTime - b.CkptTime)
	for _, every := range []int{cfg.DNNCkptEach, cfg.DNNCkptEach * 2} {
		c := cfg
		c.DNNCkptEach = every
		rep, err := workloads.RunWorkload(dnn.New(), workloads.WithMode(workloads.GPM), workloads.WithConfig(c))
		if err != nil {
			return nil, err
		}
		nCkpts := cfg.DNNIters / every
		if nCkpts == 0 {
			nCkpts = 1
		}
		// Restore latency via a crash run.
		total, err := countOps(dnn.New(), c)
		if err != nil {
			return nil, err
		}
		cr, err := workloads.RunWorkload(dnn.New(), workloads.WithMode(workloads.GPM), workloads.WithConfig(c), workloads.WithCrashAt(total*95/100))
		if err != nil {
			return nil, err
		}
		overhead := (float64(rep.OpTime) - baseCompute) / baseCompute * 100
		t.Add(fmt.Sprintf("%d", every),
			rep.OpTime.Milliseconds(),
			overhead,
			rep.CkptTime.Milliseconds()/float64(nCkpts),
			cr.Restore.Milliseconds())
	}
	return t, nil
}
