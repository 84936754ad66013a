package sim

// Params collects every hardware constant used by the timing models. The
// defaults approximate the paper's evaluation platform (Table 3): 4× Xeon
// Gold 6242, NVIDIA Titan RTX, 8×128 GB Optane DCPMM, PCIe 3.0 ×16.
//
// Constants that the paper reports directly (Optane's pattern-dependent
// bandwidth, PCIe peak, SM count, warp size, coalesce granularity) are taken
// verbatim; the rest are calibrated so the benchmark harness reproduces the
// paper's relative results (see EXPERIMENTS.md).
type Params struct {
	// ---- PCIe 3.0 x16 interconnect ----

	// PCIeBandwidth is the achievable link bandwidth in bytes/second
	// (~13 GB/s per §6.1).
	PCIeBandwidth float64
	// PCIeRTT is the round-trip time for a single transaction to host
	// memory and back; a system-scoped fence from the GPU pays at least
	// this much.
	PCIeRTT Duration
	// PCIeMaxInflight bounds the number of concurrent outstanding
	// operations the GPU can keep on the link (§3.2: "it typically
	// supports a limited number of concurrent operations on the PCIe").
	PCIeMaxInflight int
	// DMAInit is the fixed software cost of initiating one DMA transfer
	// (driver + engine programming).
	DMAInit Duration

	// ---- Intel Optane DC PMM ----

	// PMSeqAlignedBW is write bandwidth for sequential 256B-aligned
	// access (12.5 GB/s, §6.1).
	PMSeqAlignedBW float64
	// PMSeqUnalignedBW is write bandwidth for sequential but unaligned
	// access (3.13 GB/s, §6.1).
	PMSeqUnalignedBW float64
	// PMRandomBW is write bandwidth for random access (0.72 GB/s, §6.1).
	PMRandomBW float64
	// PMReadBandwidth is the aggregate read bandwidth of the interleaved
	// DIMMs (reads are much faster than writes on Optane).
	PMReadBandwidth float64
	// PMReadLatency is the media read latency (~3× DRAM, §2).
	PMReadLatency Duration
	// PMDrainPerLine is the marginal fence cost per dirty line drained
	// into the ADR domain (WPQ-pipelined).
	PMDrainPerLine Duration
	// LLCFenceRTT is the cost of a system-scoped fence that only has to
	// reach the LLC (DDIO enabled, or eADR): no media drain is needed.
	LLCFenceRTT Duration
	// PMInternalBlock is Optane's internal buffering granularity (256B).
	PMInternalBlock int

	// ---- Host DRAM ----

	DRAMBandwidth float64  // bytes/second
	DRAMLatency   Duration // load-to-use

	// ---- CPU LLC / DDIO ----

	// LLCCapacity is the last-level cache capacity available to DDIO
	// (Intel reserves a slice of LLC for inbound I/O).
	LLCCapacity int64
	// LLCLineSize is the CPU cache line size (64B).
	LLCLineSize int

	// ---- GPU (Titan RTX-like) ----

	NumSMs          int // streaming multiprocessors (72)
	WarpSize        int // threads per warp (32)
	MaxBlocksPerSM  int // concurrently resident blocks per SM
	CoalesceBytes   int // HW coalescer granularity (128B, §2)
	HBMBandwidth    float64
	HBMLatency      Duration
	GPUIssueCost    Duration // warp-clock cost to issue one coalesced store
	GPUComputeScale float64  // multiplier on Compute() durations on the GPU
	KernelLaunch    Duration // fixed launch overhead per kernel
	// GPULoadStall is the warp-visible stall for a load that misses to
	// host memory, after occupancy-based latency hiding.
	GPULoadStall Duration

	// ---- CPU execution ----

	CPUComputeScale float64 // multiplier on Compute() durations on the CPU
	// CPUFlushCost is the per-line cost of CLFLUSHOPT as seen by the
	// issuing thread (they pipeline, so this is throughput not latency).
	CPUFlushCost Duration
	// CPUDrainCost is the cost of SFENCE waiting for pending flushes.
	CPUDrainCost Duration
	// CPUStoreBandwidth is a single CPU thread's sustainable copy
	// bandwidth into PM (store + flush path).
	CPUStoreBandwidth float64
	// CPUPMAggregateBW caps the total CPU-side flush bandwidth into PM
	// regardless of thread count; the small headroom over a single
	// thread's bandwidth produces CAP-mm's 1.47× scaling plateau (Fig 3a).
	CPUPMAggregateBW float64
	// CPUPMScaleK shapes how quickly CPU threads approach the aggregate
	// cap: effective bandwidth with n threads is
	// CPUPMAggregateBW·n/(n+CPUPMScaleK).
	CPUPMScaleK float64

	// ---- Filesystem (ext4-DAX-like) ----

	SyscallOverhead Duration // fixed per-syscall cost
	FsyncBase       Duration // fixed fsync cost on a DAX file
	// FSWriteBandwidth is the effective bandwidth of write(2) into a
	// DAX file (copy through the kernel).
	FSWriteBandwidth float64

	// ---- GPUfs-like layer ----

	GPUFSCallOverhead Duration // per in-kernel file call (CPU RPC)
	GPUFSPageSize     int      // transfer granularity
	GPUFSMaxFileSize  int64    // 2 GB limit (§6.1), scaled
}

// Default returns the calibrated parameter set approximating Table 3.
func Default() *Params {
	return &Params{
		PCIeBandwidth:   13e9,
		PCIeRTT:         900 * Nanosecond,
		PCIeMaxInflight: 52,
		DMAInit:         12 * Microsecond,

		PMSeqAlignedBW:   12.5e9,
		PMSeqUnalignedBW: 3.13e9,
		PMRandomBW:       0.72e9,
		PMReadBandwidth:  30e9,
		PMReadLatency:    300 * Nanosecond,
		PMDrainPerLine:   20 * Nanosecond,
		LLCFenceRTT:      180 * Nanosecond,
		PMInternalBlock:  256,

		DRAMBandwidth: 60e9,
		DRAMLatency:   90 * Nanosecond,

		LLCCapacity: 8 << 20, // DDIO-visible slice
		LLCLineSize: 64,

		NumSMs:          72,
		WarpSize:        32,
		MaxBlocksPerSM:  4,
		CoalesceBytes:   128,
		HBMBandwidth:    450e9,
		HBMLatency:      6 * Nanosecond,
		GPUIssueCost:    4 * Nanosecond,
		GPUComputeScale: 1.0,
		KernelLaunch:    5 * Microsecond,
		GPULoadStall:    60 * Nanosecond,

		CPUComputeScale:   1.0,
		CPUFlushCost:      22 * Nanosecond,
		CPUDrainCost:      200 * Nanosecond,
		CPUStoreBandwidth: 8e9,
		CPUPMAggregateBW:  3.3e9,
		CPUPMScaleK:       0.5,

		SyscallOverhead:  1200 * Nanosecond,
		FsyncBase:        9 * Microsecond,
		FSWriteBandwidth: 1.1e9,

		GPUFSCallOverhead: 18 * Microsecond,
		GPUFSPageSize:     4096,
		GPUFSMaxFileSize:  2 << 30,
	}
}

// MaxConcurrentBlocks is the number of threadblocks the GPU can have
// resident at once; grids larger than this execute in waves.
func (p *Params) MaxConcurrentBlocks() int {
	n := p.NumSMs * p.MaxBlocksPerSM
	if n < 1 {
		return 1
	}
	return n
}

// CPUPMBandwidth returns the effective aggregate CPU store+flush bandwidth
// into PM with n concurrent threads: a saturating curve that matches the
// paper's Fig 3a plateau (1.47× over one thread at 64 threads).
func (p *Params) CPUPMBandwidth(n int) float64 {
	if n < 1 {
		n = 1
	}
	return p.CPUPMAggregateBW * float64(n) / (float64(n) + p.CPUPMScaleK)
}

// LineSize returns the persistence-domain tracking granularity.
func (p *Params) LineSize() int {
	if p.LLCLineSize <= 0 {
		return 64
	}
	return p.LLCLineSize
}
