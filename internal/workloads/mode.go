// Package workloads contains GPMbench (§4, Table 1): nine GPU-accelerated
// workloads in three classes — transactional (gpKVS, gpDB), iterative
// checkpointing (DNN, CFD, BLK, HS), and native persistence (BFS, SRAD,
// PS) — each runnable under every persistence system the paper evaluates,
// plus the CPU-only PM baselines of Fig 1.
package workloads

import (
	"fmt"
	"strings"
)

// Mode selects the persistence system a workload runs under (§6.1).
type Mode int

// Persistence modes.
const (
	// GPM: in-kernel byte-grained persistence; DDIO disabled around
	// persistent kernels; system-scoped fences persist.
	GPM Mode = iota
	// CAPfs: GPU computes, CPU persists via write(2)+fsync on ext4-DAX.
	CAPfs
	// CAPmm: GPU computes, CPU persists via mmap+CLFLUSHOPT+SFENCE on
	// the best-performing thread count.
	CAPmm
	// GPUfs: in-kernel file syscalls serviced by the CPU (block-granular,
	// CPU-persisted; many workloads cannot run, §6.1).
	GPUfs
	// GPMNDP: GPM without direct persistence — kernels load/store PM
	// directly but the CPU guarantees persistence (ablation, Fig 10).
	GPMNDP
	// GPMeADR: GPM on projected eADR hardware — fences complete at the
	// LLC, DDIO stays on (Fig 10).
	GPMeADR
	// CAPeADR: CAP-mm on eADR hardware — no CPU flushes needed (Fig 10).
	CAPeADR
	// CPUOnly: the whole application runs multi-threaded on the CPU with
	// PM persistence (Fig 1 baselines).
	CPUOnly
)

var modeNames = map[Mode]string{
	GPM:     "GPM",
	CAPfs:   "CAP-fs",
	CAPmm:   "CAP-mm",
	GPUfs:   "GPUfs",
	GPMNDP:  "GPM-NDP",
	GPMeADR: "GPM-eADR",
	CAPeADR: "CAP-eADR",
	CPUOnly: "CPU",
}

func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return "unknown"
}

// ModeByName resolves a Mode from its String form (e.g. "GPM", "CAP-fs").
// The error lists every valid name.
func ModeByName(name string) (Mode, error) {
	var valid []string
	for m := GPM; m <= CPUOnly; m++ {
		if m.String() == name {
			return m, nil
		}
		valid = append(valid, m.String())
	}
	return 0, fmt.Errorf("workloads: unknown mode %q (valid: %s)", name, strings.Join(valid, ", "))
}

// UsesGPM reports whether kernels persist in-place from the GPU.
func (m Mode) UsesGPM() bool { return m == GPM || m == GPMeADR }

// UsesCAP reports whether the CPU persists results after kernels finish.
func (m Mode) UsesCAP() bool {
	return m == CAPfs || m == CAPmm || m == CAPeADR || m == GPMNDP
}

// EADR reports whether the mode models eADR hardware.
func (m Mode) EADR() bool { return m == GPMeADR || m == CAPeADR }
