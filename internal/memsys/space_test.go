package memsys

import (
	"bytes"
	"testing"

	"github.com/gpm-sim/gpm/internal/sim"
)

func newSpace(t *testing.T) *Space {
	t.Helper()
	return New(sim.Default(), Config{HBMSize: 1 << 20, DRAMSize: 1 << 20, PMSize: 1 << 20})
}

func TestAllocAndKinds(t *testing.T) {
	s := newSpace(t)
	h := s.AllocHBM(100)
	d := s.AllocDRAM(100)
	p := s.AllocPM(100, 0)
	if s.KindOf(h) != KindHBM || s.KindOf(d) != KindDRAM || s.KindOf(p) != KindPM {
		t.Errorf("kinds: %v %v %v", s.KindOf(h), s.KindOf(d), s.KindOf(p))
	}
	if s.KindOf(0x999) != KindInvalid {
		t.Error("bogus address should be invalid")
	}
	if p%256 != 0 {
		t.Error("PM allocation not 256B aligned")
	}
	u := s.AllocPM(100, 1)
	_ = u
	if s.PMUsed() <= 0 {
		t.Error("PMUsed not tracking")
	}
}

func TestKindString(t *testing.T) {
	if KindHBM.String() != "HBM" || KindDRAM.String() != "DRAM" || KindPM.String() != "PM" || KindInvalid.String() != "invalid" {
		t.Error("Kind.String broken")
	}
}

func TestReadWriteAllRegions(t *testing.T) {
	s := newSpace(t)
	for _, addr := range []uint64{s.AllocHBM(64), s.AllocDRAM(64), s.AllocPM(64, 0)} {
		want := []byte{1, 2, 3, 4}
		s.WriteCPU(addr, want)
		got := make([]byte, 4)
		s.Read(addr, got)
		if !bytes.Equal(got, want) {
			t.Errorf("region %v: got %v", s.KindOf(addr), got)
		}
	}
}

func TestGPUWritePMWithDDIOOn(t *testing.T) {
	s := newSpace(t)
	addr := s.AllocPM(64, 0)
	lines := s.WriteGPU(addr, []byte{1})
	if len(lines) != 0 {
		t.Error("DDIO-on GPU write should return no fence-persistable lines")
	}
	if !s.LLC.Resident(addr - PMBase) {
		t.Error("DDIO-on write not in LLC")
	}
	s.Crash()
	got := make([]byte, 1)
	s.Read(addr, got)
	if got[0] != 0 {
		t.Error("LLC-cached write survived crash")
	}
}

func TestGPUWritePMWithDDIOOff(t *testing.T) {
	s := newSpace(t)
	addr := s.AllocPM(64, 0)
	s.SetDDIOOff(true)
	if !s.DDIOOff() {
		t.Error("DDIO flag")
	}
	lines := s.WriteGPU(addr, []byte{7})
	if len(lines) != 1 {
		t.Fatalf("expected 1 dirty line, got %v", lines)
	}
	if s.Persisted(addr, 1) {
		t.Error("in-flight write already durable")
	}
	s.PersistLines(lines)
	if !s.Persisted(addr, 1) {
		t.Error("fence-persisted line not durable")
	}
	s.Crash()
	got := make([]byte, 1)
	s.Read(addr, got)
	if got[0] != 7 {
		t.Error("persisted write lost")
	}
}

func TestEADRGPUWriteDurable(t *testing.T) {
	s := newSpace(t)
	s.SetEADR(true)
	if !s.EADR() {
		t.Error("eADR flag")
	}
	addr := s.AllocPM(64, 0)
	s.WriteGPU(addr, []byte{3}) // DDIO on + eADR: durable at LLC
	if !s.Persisted(addr, 1) {
		t.Error("eADR write not durable")
	}
}

func TestCrashWipesVolatileRegions(t *testing.T) {
	s := newSpace(t)
	h := s.AllocHBM(64)
	d := s.AllocDRAM(64)
	s.WriteCPU(h, []byte{1})
	s.WriteCPU(d, []byte{2})
	s.Crash()
	got := make([]byte, 1)
	s.Read(h, got)
	if got[0] != 0 {
		t.Error("HBM survived crash")
	}
	s.Read(d, got)
	if got[0] != 0 {
		t.Error("DRAM survived crash")
	}
	// The crash clears only below the allocation marks; nothing above
	// them was ever written.
	if bad := nonZero(s); len(bad) > 0 {
		t.Errorf("regions %v hold data after a crash", bad)
	}
}

func TestCPUWritePMVolatileUntilPersist(t *testing.T) {
	s := newSpace(t)
	addr := s.AllocPM(64, 0)
	lines := s.WriteCPU(addr, []byte{5})
	if len(lines) == 0 {
		t.Fatal("CPU PM write returned no lines")
	}
	s.Crash()
	got := make([]byte, 1)
	s.Read(addr, got)
	if got[0] != 0 {
		t.Error("unflushed CPU write survived")
	}
}

func TestTypedAccessors(t *testing.T) {
	s := newSpace(t)
	addr := s.AllocPM(64, 0)
	s.WriteU32(addr, 0xdeadbeef)
	if s.ReadU32(addr) != 0xdeadbeef {
		t.Error("u32")
	}
	s.WriteU64(addr+8, 0x0123456789abcdef)
	if s.ReadU64(addr+8) != 0x0123456789abcdef {
		t.Error("u64")
	}
	s.WriteF32(addr+16, 3.5)
	if s.ReadF32(addr+16) != 3.5 {
		t.Error("f32")
	}
	s.WriteF64(addr+24, -2.25)
	if s.ReadF64(addr+24) != -2.25 {
		t.Error("f64")
	}
}

func TestSnapshotPersistentVirtual(t *testing.T) {
	s := newSpace(t)
	addr := s.AllocPM(64, 0)
	s.WriteU32(addr, 11)
	s.PersistRange(addr, 4)
	s.WriteU32(addr, 22)
	snap := s.SnapshotPersistent(addr, 4)
	if snap[0] != 11 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestPersistRangeNonPMIsNoop(t *testing.T) {
	s := newSpace(t)
	h := s.AllocHBM(64)
	s.PersistRange(h, 64) // must not panic
	if s.Persisted(h, 1) {
		t.Error("HBM cannot be persisted")
	}
}

func TestLockForStable(t *testing.T) {
	s := newSpace(t)
	a := s.AllocPM(64, 0)
	if s.LockFor(a) != s.LockFor(a) {
		t.Error("LockFor not stable for same address")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := newSpace(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Read(PMBase+uint64(s.PM.Size()), make([]byte, 1))
}
