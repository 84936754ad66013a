package memsys

import (
	"bytes"
	"testing"

	"github.com/gpm-sim/gpm/internal/sim"
)

// nonZero reports which of s's regions hold a nonzero byte anywhere in
// their backing arrays, allocated or not.
func nonZero(s *Space) []string {
	pm := make([]byte, s.PM.Size())
	s.PM.Read(0, pm)
	var bad []string
	for _, r := range []struct {
		name string
		data []byte
	}{{"HBM", s.hbm.data}, {"DRAM", s.dram.data}, {"PM", pm}} {
		if !bytes.Equal(r.data, make([]byte, len(r.data))) {
			bad = append(bad, r.name)
		}
	}
	return bad
}

// A node built after another of the same shape was released reads all zero
// in every region — allocated or not, durable or dirty — and the released
// node refuses every access.
func TestReleaseRecyclesZeroedNode(t *testing.T) {
	cfg := Config{HBMSize: 1 << 20, DRAMSize: 2 << 20, PMSize: 1 << 20}
	s := New(sim.Default(), cfg)
	h, d := s.AllocHBM(4096), s.AllocDRAM(4096)
	p, q := s.AllocPM(4096, 0), s.AllocPM(4096, 0)
	ones := bytes.Repeat([]byte{0xff}, 4096)
	s.WriteGPU(h, ones)
	s.WriteCPU(d, ones)
	s.WriteCPU(p, ones)
	s.PersistRange(p, 4096)
	s.SetDDIOOff(true)
	s.WriteGPU(q, ones) // left dirty
	hbm, dram := &s.hbm.data[0], &s.dram.data[0]
	s.Release()

	for _, addr := range []uint64{h, d, p} {
		for name, access := range map[string]func(){
			"Read":     func() { s.Read(addr, make([]byte, 1)) },
			"WriteGPU": func() { s.WriteGPU(addr, []byte{1}) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s at %#x on a released space did not panic", name, addr)
					}
				}()
				access()
			}()
		}
	}

	s2 := New(sim.Default(), cfg)
	if &s2.hbm.data[0] != hbm || &s2.dram.data[0] != dram {
		t.Log("arrays were not recycled; the scan checks fresh ones")
	}
	if bad := nonZero(s2); len(bad) > 0 {
		t.Errorf("regions %v of a recycled node are not all zero", bad)
	}
	if n := s2.PM.DirtyLines(); n != 0 {
		t.Errorf("recycled PM has %d dirty lines", n)
	}
	s2.Release()
}
