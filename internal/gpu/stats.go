package gpu

import (
	"github.com/gpm-sim/gpm/internal/sim"
)

// Stats aggregates a kernel's memory traffic. Byte counts are payload
// bytes; transaction counts are post-coalescer (one per unique 128B block
// per SIMT step).
type Stats struct {
	PMWriteBytes int64 // GPU stores landing on PM
	PMWriteTxns  int64
	PMReadBytes  int64 // GPU loads from PM
	PMReadTxns   int64

	HostWriteBytes int64 // GPU stores to host DRAM
	HostReadBytes  int64 // GPU loads from host DRAM
	HostTxns       int64

	HBMBytes int64 // device-memory traffic

	Fences int64 // system-scoped fences executed

	// Serial is simulated time spent serialized on named software
	// resources (e.g. conventional-log partition locks), keyed by name.
	//
	// Ownership: Launch returns a Stats whose Serial map is freshly
	// allocated and owned by the caller, but Go's value-copy semantics
	// still alias it — `b := a` shares a.Serial. Use Clone for an
	// independent copy before mutating or retaining a Stats that others
	// may also hold.
	Serial map[string]sim.Duration

	pmPattern sim.AccessSnapshot
}

// Clone returns a deep copy of s: the Serial map is duplicated so mutating
// the clone (or the original) cannot affect the other. All other fields are
// plain values and copy by assignment.
func (s *Stats) Clone() Stats {
	out := *s
	if s.Serial != nil {
		out.Serial = make(map[string]sim.Duration, len(s.Serial))
		for name, d := range s.Serial {
			out.Serial[name] = d
		}
	}
	return out
}

// kernelStats accumulates one block's traffic. Each block owns its own
// instance, driven by one of its hub and runners at a time (see Block), so
// no locking is needed; Launch folds the per-block instances together in
// block-ID order after the wave joins.
type kernelStats struct {
	pmWriteBytes, pmWriteTxns int64
	pmReadBytes, pmReadTxns   int64
	hostWriteBytes            int64
	hostReadBytes             int64
	hostTxns                  int64
	hbmBytes                  int64
	fences                    int64

	serial []sim.Duration // dense, indexed by resource id

	pmWrites sim.AccessStats
}

func newStats() *kernelStats {
	return &kernelStats{}
}

// addSerial accumulates serialized time for a resource id.
func (k *kernelStats) addSerial(id uint32, d sim.Duration) {
	for int(id) >= len(k.serial) {
		k.serial = append(k.serial, 0)
	}
	k.serial[id] += d
}

// mergeFrom folds another block's totals into k. It runs in Launch's serial
// reduction phase (block-ID order), after all block goroutines have joined,
// so no locking is needed; every term is a commutative sum, but the fixed
// order keeps the AccessStats sequential/random classification — which is
// order-sensitive — deterministic.
func (k *kernelStats) mergeFrom(o *kernelStats) {
	k.pmWriteBytes += o.pmWriteBytes
	k.pmWriteTxns += o.pmWriteTxns
	k.pmReadBytes += o.pmReadBytes
	k.pmReadTxns += o.pmReadTxns
	k.hostWriteBytes += o.hostWriteBytes
	k.hostReadBytes += o.hostReadBytes
	k.hostTxns += o.hostTxns
	k.hbmBytes += o.hbmBytes
	k.fences += o.fences
	for id, d := range o.serial {
		if d != 0 {
			k.addSerial(uint32(id), d)
		}
	}
	k.pmWrites.Merge(&o.pmWrites)
}

// snapshot converts the folded totals to the public Stats form. Runs after
// the wave joins, on Launch's goroutine.
func (k *kernelStats) snapshot(d *Device) Stats {
	st := Stats{
		PMWriteBytes:   k.pmWriteBytes,
		PMWriteTxns:    k.pmWriteTxns,
		PMReadBytes:    k.pmReadBytes,
		PMReadTxns:     k.pmReadTxns,
		HostWriteBytes: k.hostWriteBytes,
		HostReadBytes:  k.hostReadBytes,
		HostTxns:       k.hostTxns,
		HBMBytes:       k.hbmBytes,
		Fences:         k.fences,
		Serial:         make(map[string]sim.Duration, len(k.serial)),
	}
	for id, dur := range k.serial {
		if dur != 0 {
			st.Serial[d.resourceName(uint32(id))] += dur
		}
	}
	st.pmPattern = k.pmWrites.Snapshot()
	return st
}

// PMPattern exposes the kernel's PM write pattern statistics.
func (s *Stats) PMPattern() sim.AccessSnapshot { return s.pmPattern }
