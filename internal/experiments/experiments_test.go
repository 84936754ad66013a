package experiments

import (
	"strconv"
	"testing"

	"github.com/gpm-sim/gpm/internal/workloads"
)

func f(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return v
}

func TestFigure1aShape(t *testing.T) {
	tab, err := Figure1a(workloads.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// GPM-KVS beats every CPU store (the 2.7–5.8× of Fig 1a).
	for _, name := range []string{"pmemKV", "RocksDB-pmem", "MatrixKV"} {
		row := tab.FindRow(name)
		if row == nil {
			t.Fatalf("missing %s", name)
		}
		if sp := f(t, row[2]); sp <= 1.2 {
			t.Errorf("GPM speedup over %s = %.2f, want > 1.2", name, sp)
		}
	}
	if f(t, tab.FindRow("RocksDB-pmem")[2]) <= f(t, tab.FindRow("pmemKV")[2]) {
		t.Error("RocksDB should show the largest GPM speedup (it is slowest)")
	}
}

func TestFigure1bShape(t *testing.T) {
	// Default (not quick) scale: BFS's GPU advantage needs real frontier
	// sizes to amortize kernel-launch overheads, exactly as on hardware.
	tab, err := Figure1b(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if sp := f(t, r[1]); sp <= 1 {
			t.Errorf("%s: GPM speedup over CPU = %.2f, want > 1", r[0], sp)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	tab, err := Figure3(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	var cap1, cap64, gpm32, gpmMax float64
	for _, r := range tab.Rows {
		sp := f(t, r[2])
		switch r[0] + "/" + r[1] {
		case "CAP-mm/1":
			cap1 = sp
		case "CAP-mm/64":
			cap64 = sp
		case "GPM/32":
			gpm32 = sp
		}
		if r[0] == "GPM" && sp > gpmMax {
			gpmMax = sp
		}
	}
	if cap1 != 1 {
		t.Errorf("CAP-mm/1 = %.2f, want 1", cap1)
	}
	// Fig 3a: plateau around 1.47×.
	if cap64 < 1.2 || cap64 > 1.8 {
		t.Errorf("CAP-mm/64 = %.2f, want ~1.47", cap64)
	}
	// Fig 3b: one warp is slower than single-threaded CAP; peak ~4×.
	if gpm32 >= 1 {
		t.Errorf("GPM/32 = %.2f, want < 1", gpm32)
	}
	if gpmMax < 2 {
		t.Errorf("GPM peak = %.2f, want well above CAP", gpmMax)
	}
}

func TestFigure9Shape(t *testing.T) {
	tab, err := Figure9(workloads.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 11 {
		t.Fatalf("rows = %d, want 11 workload configs", len(tab.Rows))
	}
	gpufsRan := 0
	for _, r := range tab.Rows {
		name := r[0]
		if capmm := f(t, r[2]); capmm < 0.3 {
			t.Errorf("%s: CAP-mm speedup %.2f implausible", name, capmm)
		}
		gpm := f(t, r[3])
		if gpm <= 1 {
			t.Errorf("%s: GPM speedup over CAP-fs = %.2f, want > 1", name, gpm)
		}
		if gpm <= f(t, r[2]) {
			t.Errorf("%s: GPM (%.2f) should beat CAP-mm (%s)", name, gpm, r[2])
		}
		if r[4] != "*" {
			gpufsRan++
			if g := f(t, r[4]); g >= gpm {
				t.Errorf("%s: GPUfs (%.2f) should not beat GPM (%.2f)", name, g, gpm)
			}
		}
	}
	// Most workloads fail on GPUfs; the coarse-grained few run (§6.1).
	if gpufsRan == 0 || gpufsRan > 5 {
		t.Errorf("GPUfs ran %d workloads, want a coarse-grained few", gpufsRan)
	}
}

func TestTable4Shape(t *testing.T) {
	tab, err := Table4(workloads.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		wa := f(t, r[2])
		switch r[0] {
		case "gpKVS", "gpKVS(95:5)", "gpDB(U)":
			if wa < 2 {
				t.Errorf("%s WA = %.2f, want large", r[0], wa)
			}
		case "gpDB(I)":
			if wa < 0.9 || wa > 3 {
				t.Errorf("gpDB(I) WA = %.2f, want ~1.27", wa)
			}
		default:
			if wa < 0.7 || wa > 1.6 {
				t.Errorf("%s WA = %.2f, want ~1.0", r[0], wa)
			}
		}
	}
}

func TestFigure10Shape(t *testing.T) {
	tab, err := Figure10(workloads.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	prodGPM, prodNDP := 1.0, 1.0
	for _, r := range tab.Rows {
		ndp, gpm, geadr, ceadr := f(t, r[2]), f(t, r[3]), f(t, r[4]), f(t, r[5])
		prodGPM *= gpm
		prodNDP *= ndp
		// At the quick scale, fixed launch costs can let NDP edge ahead
		// on the smallest workloads; only the aggregate check below holds
		// the paper's ordering. Nothing checks these per-row carve-outs at
		// default scale: the bench's sim-suite runs GPM, CAP-fs and CAP-mm
		// only, never GPM-NDP, GPM-eADR or CAP-eADR (ROADMAP item 12).
		if gpm*2 < ndp {
			t.Errorf("%s: GPM (%.2f) should not trail GPM-NDP (%.2f) by 2x", r[0], gpm, ndp)
		}
		if geadr < gpm*0.95 {
			t.Errorf("%s: GPM-eADR (%.2f) should be at least GPM (%.2f)", r[0], geadr, gpm)
		}
		if geadr <= ceadr {
			t.Errorf("%s: GPM-eADR (%.2f) should beat CAP-eADR (%.2f)", r[0], geadr, ceadr)
		}
	}
	if prodGPM <= prodNDP {
		t.Errorf("aggregate GPM (%.2f) should beat aggregate GPM-NDP (%.2f)", prodGPM, prodNDP)
	}
}

func TestFigure11aShape(t *testing.T) {
	tab, err := Figure11a(workloads.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	kvs := f(t, tab.FindRow("gpKVS")[1])
	db := f(t, tab.FindRow("gpDB(U)")[1])
	if kvs <= 1 || db <= 1 {
		t.Errorf("HCL speedups must exceed 1: gpKVS %.2f, gpDB(U) %.2f", kvs, db)
	}
}

func TestFigure11bShape(t *testing.T) {
	tab, err := Figure11b(8192)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	firstHCL := f(t, tab.Rows[0][1])
	lastHCL := f(t, tab.Rows[len(tab.Rows)-1][1])
	firstConv := f(t, tab.Rows[0][2])
	lastConv := f(t, tab.Rows[len(tab.Rows)-1][2])
	// Fig 11b shape: conventional latency climbs much faster with the
	// thread count than HCL's (which only grows with aggregate
	// bandwidth), and is far slower in absolute terms at scale.
	hclGrowth := lastHCL / firstHCL
	convGrowth := lastConv / firstConv
	if hclGrowth >= convGrowth {
		t.Errorf("HCL grew %.1fx vs conventional %.1fx; HCL should scale better", hclGrowth, convGrowth)
	}
	if lastConv <= lastHCL {
		t.Error("conventional logging should be slower than HCL at scale")
	}
}

func TestFigure12Shape(t *testing.T) {
	tab, err := Figure12(workloads.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range tab.Rows {
		bw := f(t, r[1])
		byName[r[0]] = bw
		if bw > 13 {
			t.Errorf("%s exceeds PCIe: %.2f GB/s", r[0], bw)
		}
	}
	// Transactional workloads are PM-pattern bound, well below the link
	// (§6.1); checkpointing streams run much faster.
	if byName["gpKVS"] >= byName["HS"] {
		t.Errorf("gpKVS (%.2f) should be slower than HS checkpoint streams (%.2f)",
			byName["gpKVS"], byName["HS"])
	}
}

func TestTable5Shape(t *testing.T) {
	tab, err := Table5(workloads.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		r := tab.FindRow(name)
		if r == nil {
			t.Fatalf("missing %s", name)
		}
		return f(t, r[2])
	}
	if get("gpDB(I)") >= get("gpDB(U)") {
		t.Error("gpDB(I) restoration should be far cheaper than gpDB(U)")
	}
	for _, r := range tab.Rows {
		pct := f(t, r[2])
		if pct < 0 || pct > 60 {
			t.Errorf("%s restore %.2f%% out of plausible range", r[0], pct)
		}
	}
}

func TestOptanePatternShape(t *testing.T) {
	tab, err := OptanePattern(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	sa := f(t, tab.FindRow("seq-aligned")[1])
	su := f(t, tab.FindRow("seq-unaligned")[1])
	rd := f(t, tab.FindRow("random")[1])
	if !(sa > su && su > rd) {
		t.Errorf("bandwidth ordering broken: aligned %.2f, unaligned %.2f, random %.2f", sa, su, rd)
	}
	if rd > 1.2 {
		t.Errorf("random bandwidth %.2f, want near 0.72 GB/s", rd)
	}
}

func TestDNNFrequency(t *testing.T) {
	tab, err := DNNFrequency(workloads.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Checkpointing more often costs more total time.
	if f(t, tab.Rows[0][2]) < f(t, tab.Rows[1][2]) {
		t.Error("more frequent checkpoints should cost more overhead")
	}
}

func TestTableHelpers(t *testing.T) {
	tab := &Table{Name: "x", Header: []string{"a", "b"}}
	tab.Add("k", 1.5)
	if tab.TSV() != "a\tb\nk\t1.500\n" {
		t.Errorf("TSV = %q", tab.TSV())
	}
	if tab.Cell(0, 1) != "1.500" || tab.Cell(5, 5) != "" {
		t.Error("Cell")
	}
	if tab.FindRow("nope") != nil {
		t.Error("FindRow")
	}
}

func TestBreakdownShape(t *testing.T) {
	tab, err := Breakdown(workloads.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range tab.Rows {
		seen[r[0]] = true
		if pct := f(t, r[4]); pct < 0 || pct > 101 {
			t.Errorf("%s/%s pct = %.1f out of range", r[0], r[2], pct)
		}
	}
	if len(seen) != 11 {
		t.Errorf("breakdown covered %d workloads, want 11", len(seen))
	}
}

func TestCPUDatabaseShape(t *testing.T) {
	// §6.1: GPM speeds up gpDB(I) by 3.1× and gpDB(U) by 6.9× over the
	// OpenMP engine; at any scale UPDATE's gain must exceed INSERT's.
	tab, err := CPUDatabase(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ins := f(t, tab.FindRow("gpDB(I)")[1])
	upd := f(t, tab.FindRow("gpDB(U)")[1])
	if ins <= 1 || upd <= 1 {
		t.Errorf("GPM should beat the CPU engine: I=%.2f U=%.2f", ins, upd)
	}
	if upd <= ins {
		t.Errorf("UPDATE gain (%.2f) should exceed INSERT gain (%.2f)", upd, ins)
	}
}

func TestCheckpointFrequencyShape(t *testing.T) {
	tab, err := CheckpointFrequency(workloads.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 4 workloads x 2 frequencies", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if imp := f(t, r[2]); imp <= 0 {
			t.Errorf("%s@%s: GPM total-time improvement %.1f%%, want positive", r[0], r[1], imp)
		}
	}
}
