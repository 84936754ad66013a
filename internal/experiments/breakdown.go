package experiments

import (
	"sort"

	"github.com/gpm-sim/gpm/internal/dnn"
	"github.com/gpm-sim/gpm/internal/finance"
	"github.com/gpm-sim/gpm/internal/gpdb"
	"github.com/gpm-sim/gpm/internal/stencil"
	"github.com/gpm-sim/gpm/internal/workloads"
)

func dnnNew() workloads.Workload { return dnn.New() }
func cfdNew() workloads.Workload { return stencil.NewCFD() }
func blkNew() workloads.Workload { return finance.NewBlackScholes() }
func hsNew() workloads.Workload  { return stencil.NewHotspot() }

// gpdbNew builds the gpDB workload for op index 0 (INSERT) or 1 (UPDATE).
func gpdbNew(op int) workloads.Workload {
	if op == 0 {
		return gpdb.New(gpdb.Insert)
	}
	return gpdb.New(gpdb.Update)
}

// Breakdown decomposes each workload's GPM run into its timeline segments
// (kernels, persists, staging, metadata) as percentages of total simulated
// time — the analysis view behind the paper's §6.1 discussions of where
// each class of workload spends its time.
func Breakdown(cfg workloads.Config) (*Table, error) {
	t := &Table{Name: "breakdown",
		Header: []string{"workload", "total_us", "segment", "us", "pct"}}
	for _, mk := range Suite() {
		w := mk()
		env := workloads.NewEnv(workloads.GPM, cfg)
		if err := w.Setup(env); err != nil {
			return nil, err
		}
		env.BeginOps()
		if err := w.Run(env); err != nil {
			return nil, err
		}
		tl := env.Ctx.Timeline
		total := env.OpTime()
		type seg struct {
			name string
			us   float64
		}
		var segs []seg
		for _, name := range tl.Segments() {
			if name == "setup" || name == "map" {
				continue // pre-op staging
			}
			d := tl.Segment(name)
			if d <= 0 {
				continue
			}
			segs = append(segs, seg{name, d.Microseconds()})
		}
		sort.Slice(segs, func(i, j int) bool { return segs[i].us > segs[j].us })
		if len(segs) > 6 {
			segs = segs[:6] // largest six segments per workload
		}
		for _, s := range segs {
			pct := s.us / total.Microseconds() * 100
			t.Add(w.Name(), total.Microseconds(), s.name, s.us, pct)
		}
	}
	return t, nil
}

// CPUDatabase reproduces §6.1's "Benefits over CPU-only persistence" gpDB
// comparison: the paper converted Virginian's CUDA engine to OpenMP and
// measured GPM speedups of 3.1× (INSERTs) and 6.9× (UPDATEs) with the same
// write-ahead-logging recoverability.
func CPUDatabase(cfg workloads.Config) (*Table, error) {
	t := &Table{Name: "cpudb", Header: []string{"op", "gpm_speedup_over_cpu"}}
	for _, mk := range []func() workloads.Workload{
		func() workloads.Workload { return gpdbNew(0) },
		func() workloads.Workload { return gpdbNew(1) },
	} {
		g, err := workloads.RunWorkload(mk(), workloads.WithMode(workloads.GPM), workloads.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		c, err := workloads.RunWorkload(mk(), workloads.WithMode(workloads.CPUOnly), workloads.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		t.Add(g.Workload, float64(c.OpTime)/float64(g.OpTime))
	}
	return t, nil
}

// CheckpointFrequency reproduces §6.1's total-execution-time claim: "various
// workloads' total execution times improved by 19%-122% over different
// checkpointing frequencies". For every checkpointing workload and two
// frequencies it reports how much faster the whole run (compute +
// checkpoints) is with GPM than with CAP-mm.
func CheckpointFrequency(cfg workloads.Config) (*Table, error) {
	t := &Table{Name: "ckptfreq",
		Header: []string{"workload", "ckpt_every", "total_improvement_pct"}}
	type entry struct {
		mk   func() workloads.Workload
		base int
		set  func(*workloads.Config, int)
	}
	entries := []entry{
		{func() workloads.Workload { return dnnNew() }, cfg.DNNCkptEach,
			func(c *workloads.Config, v int) { c.DNNCkptEach = v }},
		{func() workloads.Workload { return cfdNew() }, cfg.CFDCkptEach,
			func(c *workloads.Config, v int) { c.CFDCkptEach = v }},
		{func() workloads.Workload { return blkNew() }, cfg.BLKCkptEach,
			func(c *workloads.Config, v int) { c.BLKCkptEach = v }},
		{func() workloads.Workload { return hsNew() }, cfg.HSCkptEach,
			func(c *workloads.Config, v int) { c.HSCkptEach = v }},
	}
	for _, e := range entries {
		for _, every := range []int{e.base, e.base * 2} {
			c := cfg
			e.set(&c, every)
			g, err := workloads.RunWorkload(e.mk(), workloads.WithMode(workloads.GPM), workloads.WithConfig(c))
			if err != nil {
				return nil, err
			}
			m, err := workloads.RunWorkload(e.mk(), workloads.WithMode(workloads.CAPmm), workloads.WithConfig(c))
			if err != nil {
				return nil, err
			}
			imp := (float64(m.OpTime)/float64(g.OpTime) - 1) * 100
			t.Add(g.Workload, every, imp)
		}
	}
	return t, nil
}
