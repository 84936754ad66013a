package pmem

import (
	"bytes"
	"testing"

	"github.com/gpm-sim/gpm/internal/sim"
)

// Re-dirtying a line that is already dirty only bumps its sequence.
func TestRedirtyAllocatesNothing(t *testing.T) {
	d := newDev(t)
	p := make([]byte, 8)
	scratch := make([]uint64, 0, 4)
	d.WriteSeqInto(scratch, 128, p, 1)
	seq := uint64(1)
	allocs := testing.AllocsPerRun(200, func() {
		seq++
		d.WriteSeqInto(scratch, 128, p, seq)
	})
	if allocs != 0 {
		t.Errorf("re-dirtying a dirty line: %v allocs, want 0", allocs)
	}
}

// Once every shard's slab has grown, dirtying fresh lines reuses it.
func TestFreshLineWarmSlabAllocatesNothing(t *testing.T) {
	d := newDev(t)
	const lines = 64 * 32 // 32 lines per shard
	line := uint64(d.LineSize())
	p := make([]byte, line)
	scratch := make([]uint64, 0, 4)
	for i := uint64(0); i < lines; i++ {
		d.WriteSeqInto(scratch, i*line, p, i+1)
	}
	d.PersistAll()
	next := uint64(0)
	allocs := testing.AllocsPerRun(lines-1, func() {
		d.WriteSeqInto(scratch, next*line, p, next+1)
		next++
	})
	if allocs != 0 {
		t.Errorf("dirtying a fresh line on a warm slab: %v allocs, want 0", allocs)
	}
	if got := d.DirtyLines(); got != lines {
		t.Errorf("DirtyLines = %d, want %d", got, lines)
	}
}

// Property: against a reference that keeps a whole durable copy, the slab
// overlay reconstructs the exact durable image under any mix of writes,
// single-line persists (which reorder a shard's slab), full persists, and
// crashes. Addresses are confined to a few lines of few shards so slots are
// constantly moved. The second round runs on the first device's released
// media and slabs.
func TestSlabMatchesReferenceModel(t *testing.T) {
	const size = 1 << 16
	rng := sim.NewRNG(42)
	for round := 0; round < 2; round++ {
		d := New(sim.Default(), size)
		line := uint64(d.LineSize())
		durable := make([]byte, size)
		// Lines 0..7 of shards 0 and 1.
		lineAddr := func() uint64 {
			return (rng.Uint64()%8*shardCount + rng.Uint64()%2) * line
		}
		for step := 0; step < 4000; step++ {
			switch r := rng.Uint64() % 100; {
			case r < 60:
				la := lineAddr()
				off := rng.Uint64() % (2 * line)
				p := make([]byte, 1+rng.Uint64()%line)
				for i := range p {
					p[i] = byte(rng.Uint64())
				}
				if la+off+uint64(len(p)) > size {
					continue
				}
				d.Write(la+off, p)
			case r < 90:
				la := lineAddr()
				d.PersistLine(la)
				d.Read(la, durable[la:la+line])
			case r < 95:
				d.PersistAll()
				d.Read(0, durable)
			default:
				d.Crash()
				got := make([]byte, size)
				d.Read(0, got)
				if !bytes.Equal(got, durable) {
					t.Fatalf("round %d step %d: crash image diverged from the reference", round, step)
				}
				if n := d.DirtyLines(); n != 0 {
					t.Fatalf("round %d step %d: %d dirty lines after crash", round, step, n)
				}
			}
			if got := d.SnapshotPersistent(0, size); !bytes.Equal(got, durable) {
				t.Fatalf("round %d step %d: durable image diverged from the reference", round, step)
			}
		}
		d.Release()
	}
}

// A released device's media comes back all zero, whatever was left dirty
// or durable on it, and the released device refuses every access.
func TestReleaseRecyclesZeroedMedia(t *testing.T) {
	const size = 1 << 20
	d := New(sim.Default(), size)
	d.WriteDurable(4096, bytes.Repeat([]byte{7}, 300))
	d.Write(size-64, bytes.Repeat([]byte{9}, 64))
	d.Write(1000, []byte{1, 2, 3})
	d.Release()

	for _, access := range []func(){
		func() { d.Read(0, make([]byte, 1)) },
		func() { d.Write(0, []byte{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("access to a released device did not panic")
				}
			}()
			access()
		}()
	}

	d2 := New(sim.Default(), size)
	got := make([]byte, size)
	d2.Read(0, got)
	if !bytes.Equal(got, make([]byte, size)) {
		t.Error("recycled media is not all zero")
	}
	if n := d2.DirtyLines(); n != 0 {
		t.Errorf("recycled device has %d dirty lines", n)
	}
	if !d2.Persisted(0, size) {
		t.Error("recycled device is not fully durable")
	}
}
