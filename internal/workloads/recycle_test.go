package workloads_test

import (
	"bytes"
	"reflect"
	"testing"

	_ "github.com/gpm-sim/gpm/internal/experiments" // registers the suite
	"github.com/gpm-sim/gpm/internal/memsys"
	"github.com/gpm-sim/gpm/internal/sim"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// A run returns its node's memory for reuse, so the second run of a
// workload executes on arrays the first one dirtied. Its report must equal
// the first one field for field, and a node built right after each run must
// read all zero everywhere: a byte written above an allocator's high-water
// mark would survive the release and show up here.
func TestRecycledNodesChangeNothing(t *testing.T) {
	cfg := workloads.QuickConfig()
	mcfg := memsys.Config{HBMSize: cfg.HBMSize, DRAMSize: cfg.DRAMSize, PMSize: cfg.PMSize}
	for _, name := range workloads.Names() {
		for _, mode := range []workloads.Mode{workloads.GPM, workloads.CAPfs, workloads.CAPmm} {
			w, err := workloads.New(name)
			if err != nil {
				t.Fatal(err)
			}
			if !w.Supports(mode) {
				continue
			}
			var reps [2]*workloads.Report
			for i := range reps {
				if reps[i], err = workloads.Run(name, workloads.WithMode(mode), workloads.WithConfig(cfg)); err != nil {
					t.Fatalf("%s/%s run %d: %v", name, mode, i+1, err)
				}
				if bad := nonZeroRegions(memsys.New(sim.Default(), mcfg), mcfg); len(bad) > 0 {
					t.Errorf("%s/%s run %d left data in %v of the next node", name, mode, i+1, bad)
				}
			}
			if !reflect.DeepEqual(reps[0], reps[1]) {
				t.Errorf("%s/%s: report on recycled arenas differs:\n first %+v\nsecond %+v",
					name, mode, *reps[0], *reps[1])
			}
		}
	}
}

// nonZeroRegions scans every byte of s's three regions, sized by cfg, then
// releases s.
func nonZeroRegions(s *memsys.Space, cfg memsys.Config) []string {
	defer s.Release()
	var bad []string
	for _, r := range []struct {
		name string
		base uint64
		size int64
	}{
		{"HBM", memsys.HBMBase, cfg.HBMSize},
		{"DRAM", memsys.DRAMBase, cfg.DRAMSize},
		{"PM", memsys.PMBase, cfg.PMSize},
	} {
		buf := make([]byte, r.size)
		s.Read(r.base, buf)
		if !bytes.Equal(buf, make([]byte, r.size)) {
			bad = append(bad, r.name)
		}
	}
	return bad
}
