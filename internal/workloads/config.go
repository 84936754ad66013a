package workloads

import "github.com/gpm-sim/gpm/internal/telemetry"

// Config holds the scaled workload sizes. The paper's inputs are GB-scale
// (Table 1); these defaults shrink them ~64× so the whole suite runs in
// seconds of wall-clock time while keeping every ratio
// bandwidth/latency-model driven (DESIGN.md §5).
type Config struct {
	Seed uint64

	// Telemetry, when non-nil, receives spans and metrics from every run
	// started through Run/RunWorkload. Each run gets its own trace
	// process lane named "workload/mode"; metrics aggregate across runs.
	Telemetry *telemetry.Telemetry
	// CAPThreads is the CPU thread count for CAP-mm persist phases (the
	// paper uses the best of 2–32 per application).
	CAPThreads int

	// Simulated memory region sizes (bytes). Sized to the scaled
	// workloads rather than the paper's hardware so that allocating a
	// fresh node per run stays cheap.
	HBMSize, DRAMSize, PMSize int64

	// gpKVS (paper: 25 batches of 2M SETs; 100 batches of 95:5 GET:SET
	// over a 4.1 GB store).
	KVSSets        int // 8-way sets in the store
	KVSBatches     int
	KVSOpsPerBatch int

	// gpDB (paper: 50M-row table, 2.5M-row updates).
	DBRows       int
	DBCols       int
	DBInsertRows int
	DBUpdateRows int

	// DNN training (LeNet-style MLP on synthetic MNIST).
	DNNInputs   int
	DNNHidden   int
	DNNClasses  int
	DNNBatch    int
	DNNIters    int
	DNNCkptEach int

	// CFD (structured Euler grid solver).
	CFDCells    int
	CFDIters    int
	CFDCkptEach int

	// Black-Scholes (paper: 256M options).
	BLKOptions  int
	BLKIters    int
	BLKCkptEach int

	// Hotspot (paper: 16K×16K grid).
	HSDim      int
	HSIters    int
	HSCkptEach int

	// BFS (paper: USA road network — high diameter; here a 2-D grid with
	// shortcut edges, which preserves the many-iteration structure).
	BFSWidth, BFSHeight int
	BFSShortcuts        int

	// SRAD (paper: 128K×1K image).
	SRADRows, SRADCols int
	SRADIters          int

	// Prefix sum (paper: 1K arrays of 1M integers).
	PSElems int
}

// DefaultConfig returns the scaled GPMbench configuration.
func DefaultConfig() Config {
	return Config{
		Seed:       42,
		CAPThreads: 16,

		HBMSize:  64 << 20,
		DRAMSize: 48 << 20,
		PMSize:   96 << 20,

		KVSSets:        1 << 15, // 32K sets × 8 ways × 16B = 4 MB store
		KVSBatches:     4,
		KVSOpsPerBatch: 1 << 11,

		DBRows:       60000,
		DBCols:       8,
		DBInsertRows: 2000,
		DBUpdateRows: 1 << 12,

		DNNInputs:   196, // 14×14 synthetic MNIST
		DNNHidden:   64,
		DNNClasses:  10,
		DNNBatch:    64,
		DNNIters:    30,
		DNNCkptEach: 10,

		CFDCells:    1 << 16,
		CFDIters:    12,
		CFDCkptEach: 4,

		BLKOptions:  1 << 18,
		BLKIters:    8,
		BLKCkptEach: 4,

		HSDim:      224,
		HSIters:    24,
		HSCkptEach: 6,

		BFSWidth:     96,
		BFSHeight:    256,
		BFSShortcuts: 512,

		SRADRows:  192,
		SRADCols:  256,
		SRADIters: 4,

		PSElems: 1 << 18,
	}
}

// QuickConfig returns an even smaller configuration for unit tests.
func QuickConfig() Config {
	c := DefaultConfig()
	c.HBMSize = 12 << 20
	c.DRAMSize = 8 << 20
	c.PMSize = 16 << 20
	c.KVSSets = 1 << 10
	c.KVSBatches = 2
	c.KVSOpsPerBatch = 1 << 9
	c.DBRows = 4000
	c.DBInsertRows = 500
	c.DBUpdateRows = 1 << 8
	c.DNNIters = 12
	c.DNNCkptEach = 5
	c.CFDCells = 1 << 12
	c.CFDIters = 6
	c.CFDCkptEach = 3
	c.BLKOptions = 1 << 13
	c.BLKIters = 4
	c.BLKCkptEach = 2
	c.HSDim = 64
	c.HSIters = 6
	c.HSCkptEach = 3
	c.BFSWidth = 32
	c.BFSHeight = 64
	c.BFSShortcuts = 64
	c.SRADRows = 48
	c.SRADCols = 64
	c.SRADIters = 2
	c.PSElems = 1 << 14
	return c
}
