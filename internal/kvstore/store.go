package kvstore

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	gpm "github.com/gpm-sim/gpm/internal/core"
	"github.com/gpm-sim/gpm/internal/cpusim"
	"github.com/gpm-sim/gpm/internal/fsim"
	"github.com/gpm-sim/gpm/internal/gpu"
	"github.com/gpm-sim/gpm/internal/sim"
	"github.com/gpm-sim/gpm/internal/workloads"
)

const (
	ways      = 8  // set associativity (MegaKV limits collisions with 8 ways)
	pairBytes = 16 // 8B key + 8B value
	thrdGrpSz = 8  // threads cooperating per SET (Fig 6a)
	kvsTPB    = 256

	// logEntryBytes: set u32 | way u32 | oldKey u64 | oldValue u64.
	logEntryBytes = 24

	gpuOpCost = 60 * sim.Nanosecond // hash + probe on a GPU thread
	// hostOpCost is the server-side request/response handling per op
	// (parse, dispatch, assemble response) — identical under every
	// persistence system, so it dilutes GPM's advantage exactly where
	// GETs dominate (gpKVS 95:5, §6.1).
	hostOpCost = 1200 * sim.Nanosecond
)

// hashKey maps a key to (set, way); shared bit-for-bit by host and kernels.
func hashKey(key uint64, sets int) (set, way int) {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(sets)), int((z >> 32) % ways)
}

// Store is the gpKVS store on one simulated node: a table of sets × 8 ways
// × 16 B pairs on PM (a key hashes to one slot) with its tx flag, the HBM
// working mirror, and the HBM staging buffers one batch ships through. It
// runs every kernel of a batch transaction (§4.1, Fig 6) and the Fig 6b
// undo replay; the gpKVS workload and gpmserve's shards both drive it.
//
// The undo-log contract ("Persistent Memory Transactions", PAPERS.md), kept
// here for both callers: while the durable tx flag is set, every slot a
// mutate kernel overwrote has its old pair in the undo log, made durable
// before the new pair. Clearing the flag is the one commit point: it comes
// only after the batch is durable, and the logs are truncated after it.
// Recovery with the flag set undoes newest-first and removes an entry only
// after its rollback is durable, so a crash inside recovery replays
// safely. Recovery with the flag clear truncates what a crash inside the
// truncation left behind (Truncate), so the next rollback undoes only its
// own batch.
//
// The caller owns the undo logs: it creates them, picks each mutate
// launch's grid, and passes grid and log together as a TxLog (an HCL log's
// layout must match its launch grid exactly).
type Store struct {
	env  *workloads.Env
	sets int

	pmFile *fsim.File // PM-resident store
	txFile *fsim.File // transaction-active flag
	mirror uint64     // HBM working mirror of the store
	keysB  uint64     // HBM staging: SET keys
	valsB  uint64     // HBM staging: SET values
	getsB  uint64     // HBM staging: GET keys
	delsB  uint64     // HBM staging: DEL keys
	outB   uint64     // HBM staging: GET results
}

// TxLog is one mutate launch's grid and the undo log laid out for it (nil
// when the mode does not log).
type TxLog struct {
	Grid int
	Log  *gpm.Log
}

// Logged reports whether mode's kernels store to PM directly, and so
// undo-log every mutation: GPM, GPM-eADR and GPM-NDP.
func Logged(mode workloads.Mode) bool { return mode.UsesGPM() || mode == workloads.GPMNDP }

// GridFor returns the block count of a mutate grid covering nOps thread
// groups.
func GridFor(nOps int) int { return (nOps*thrdGrpSz + kvsTPB - 1) / kvsTPB }

// NewStore creates the store and flag files on env's node, allocates the
// mirror and staging for batches of up to maxOps operations per kind, and
// makes the empty store durable.
func NewStore(env *workloads.Env, sets, maxOps int) (*Store, error) {
	s := &Store{env: env, sets: sets}
	var err error
	if s.pmFile, err = env.Ctx.FS.Create("/pm/kvs.store", s.bytes(), 0); err != nil {
		return nil, err
	}
	if s.txFile, err = env.Ctx.FS.Create("/pm/kvs.tx", 64, 0); err != nil {
		return nil, err
	}
	sp := env.Ctx.Space
	s.mirror = sp.AllocHBM(s.bytes())
	s.keysB = sp.AllocHBM(int64(maxOps) * 8)
	s.valsB = sp.AllocHBM(int64(maxOps) * 8)
	s.getsB = sp.AllocHBM(int64(maxOps) * 8)
	s.delsB = sp.AllocHBM(int64(maxOps) * 8)
	s.outB = sp.AllocHBM(int64(maxOps) * 8)
	sp.PersistRange(s.pmFile.Mmap(), int(s.bytes()))
	sp.PersistRange(s.txFile.Mmap(), 8)
	return s, nil
}

// CreateLog creates an HCL undo log at path shaped for a grid-block mutate
// launch, with room for two entries per thread.
func (s *Store) CreateLog(path string, grid int) (*gpm.Log, error) {
	return s.env.Ctx.LogCreateHCL(path, LogSize(grid), grid, kvsTPB)
}

// LogSize is the size of an undo log for a grid-block mutate launch.
func LogSize(grid int) int64 { return int64(grid*kvsTPB)*2*logEntryBytes + 1<<16 }

// StoreBytes is the size on PM (and in HBM) of a store with sets sets.
func StoreBytes(sets int) int64 { return int64(sets) * ways * pairBytes }

func (s *Store) bytes() int64 { return StoreBytes(s.sets) }

// Slots is the number of key/value slots.
func (s *Store) Slots() int { return s.sets * ways }

// SlotOf returns the slot a key maps to.
func (s *Store) SlotOf(key uint64) int {
	set, way := hashKey(key, s.sets)
	return set*ways + way
}

func (s *Store) slotAddr(base uint64, set, way int) uint64 {
	return base + uint64((set*ways+way)*pairBytes)
}

// Stage ships a batch's operations to the GPU (cudaMemcpy HtoD).
func (s *Store) Stage(setKeys, setVals, delKeys, getKeys []uint64) {
	sp := s.env.Ctx.Space
	for _, a := range []struct {
		addr uint64
		vals []uint64
	}{{s.keysB, setKeys}, {s.valsB, setVals}, {s.getsB, getKeys}, {s.delsB, delKeys}} {
		if len(a.vals) > 0 {
			sp.WriteCPU(a.addr, u64Bytes(a.vals))
		}
	}
	n := int64(len(setKeys)*16 + len(getKeys)*8 + len(delKeys)*8)
	s.env.Ctx.Timeline.Add("stage", sp.DMA.TransferDown(n))
}

// SetTxFlag durably sets or clears the transaction-active flag.
func (s *Store) SetTxFlag(on bool) {
	v := uint64(0)
	if on {
		v = 1
	}
	s.env.Ctx.RunCPU("tx-flag", 1, func(t *cpusim.Thread) {
		t.WriteU64(s.txFile.Mmap(), v)
		t.PersistRange(s.txFile.Mmap(), 8)
	})
}

// TxFlagSet reads the durable transaction-active flag.
func (s *Store) TxFlagSet() bool {
	snap := s.env.Ctx.Space.SnapshotPersistent(s.txFile.Mmap(), 8)
	return binary.LittleEndian.Uint64(snap) != 0
}

// Mutate runs the staged SETs (or, with del, DELETEs) as Fig 6a's kernel:
// groups of thrdGrpSz threads cooperate per op, and the thread whose group
// lane is the key's way logs the old pair through libGPM, updates the
// mirror (and PM directly under GPM-class modes), and persists under GPM.
// A DELETE is a SET of the empty pair that misses when the key is absent.
func (s *Store) Mutate(del bool, nOps int, tl TxLog) error {
	if nOps == 0 {
		return nil
	}
	segment, keys, vals := "kvs-set", s.keysB, s.valsB
	if del {
		segment, keys = "kvs-del", s.delsB
	}
	sets, pm, mirror, log := s.sets, s.pmFile.Mmap(), s.mirror, tl.Log
	direct, persist := Logged(s.env.Mode), s.env.Mode.UsesGPM()
	var kerr error
	s.env.Ctx.Launch(segment, tl.Grid, kvsTPB, func(t *gpu.Thread) {
		gid := t.GlobalID()
		op := gid / thrdGrpSz
		if op >= nOps {
			return
		}
		key := t.LoadU64(keys + uint64(op)*8)
		t.Compute(gpuOpCost)
		set, way := hashKey(key, sets)
		// Each group thread probes its own way (Fig 6a line 3); only the
		// key's home way proceeds.
		if gid%thrdGrpSz != way {
			return
		}
		mAddr := s.slotAddr(mirror, set, way)
		var newKey, newVal uint64
		if del {
			if t.LoadU64(mAddr) != key {
				return // miss: nothing to delete
			}
		} else {
			newKey = key
			newVal = t.LoadU64(vals + uint64(op)*8)
		}
		if log != nil {
			var entry [logEntryBytes]byte
			binary.LittleEndian.PutUint32(entry[0:], uint32(set))
			binary.LittleEndian.PutUint32(entry[4:], uint32(way))
			binary.LittleEndian.PutUint64(entry[8:], t.LoadU64(mAddr))
			binary.LittleEndian.PutUint64(entry[16:], t.LoadU64(mAddr+8))
			if err := log.Insert(t, entry[:], -1); err != nil {
				kerr = err
				return
			}
		}
		t.StoreU64(mAddr, newKey)
		t.StoreU64(mAddr+8, newVal)
		if direct {
			pAddr := s.slotAddr(pm, set, way)
			t.StoreU64(pAddr, newKey)
			t.StoreU64(pAddr+8, newVal)
			if persist {
				gpm.Persist(t)
			}
		}
	})
	return kerr
}

// Get services the staged GETs from the device-resident mirror.
func (s *Store) Get(nGets int) {
	blocks := (nGets + kvsTPB - 1) / kvsTPB
	if blocks == 0 {
		return
	}
	sets, mirror, gets, out := s.sets, s.mirror, s.getsB, s.outB
	s.env.Ctx.Launch("kvs-get", blocks, kvsTPB, func(t *gpu.Thread) {
		i := t.GlobalID()
		if i >= nGets {
			return
		}
		key := t.LoadU64(gets + uint64(i)*8)
		t.Compute(gpuOpCost)
		set, way := hashKey(key, sets)
		mAddr := s.slotAddr(mirror, set, way)
		var val uint64
		if t.LoadU64(mAddr) == key {
			val = t.LoadU64(mAddr + 8)
		}
		t.StoreU64(out+uint64(i)*8, val)
	})
}

// GetResults reads back the first n GET results (0 = absent).
func (s *Store) GetResults(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = s.env.Ctx.Space.ReadU64(s.outB + uint64(i)*8)
	}
	return out
}

// HostServe accounts the host side of the store — a MegaKV-style server
// parsing requests and assembling responses for totalOps operations —
// identical under every persistence system.
func (s *Store) HostServe(totalOps int) {
	s.env.Ctx.RunCPU("kvs-serve", s.env.Cfg.CAPThreads, func(t *cpusim.Thread) {
		per := (totalOps + t.N - 1) / t.N
		mine := per
		if t.ID*per+mine > totalOps {
			mine = totalOps - t.ID*per
		}
		if mine > 0 {
			t.Compute(sim.Duration(mine) * hostOpCost)
		}
	})
}

// Commit makes a batch durable and closes its transaction, per mode. logs
// are the distinct launches whose undo logs the batch wrote (empty when no
// transaction was opened); setKeys and delKeys are the batch's mutations.
func (s *Store) Commit(logs []TxLog, setKeys, delKeys []uint64) error {
	env := s.env
	switch {
	case env.Mode.UsesGPM():
		if len(logs) == 0 {
			return nil
		}
		// Clear the flag, which commits (§5.2), then truncate the logs from
		// a kernel (only threads that logged write anything).
		s.SetTxFlag(false)
		env.PersistKernelBegin()
		for _, tl := range logs {
			log := tl.Log
			env.Ctx.Launch("kvs-logclear", tl.Grid, kvsTPB, func(t *gpu.Thread) {
				log.ClearIfUsed(t)
			})
		}
		env.PersistKernelEnd()
	case env.Mode == workloads.GPMNDP:
		// The kernel stored to PM directly, but the CPU must flush to
		// guarantee durability — and it cannot know which slots the kernel
		// updated (the indices are computed in the kernel, §3.2), so the
		// whole store gets flushed.
		env.Cap.FlushOnly(s.pmFile.Mmap(), s.bytes())
		if len(logs) == 0 {
			return nil
		}
		s.SetTxFlag(false)
		for _, tl := range logs {
			tl.Log.HostClearAll()
		}
	default:
		// CAP: no byte-grained path — the store ships to the CPU in
		// pre-defined large sections covering the updated entries (§3.2:
		// "the entire KVS (or sections of it)"). A 100%-SET batch touches
		// essentially every section, producing Table 4's ~39×
		// amplification; the 95:5 mix touches only a few, which is why its
		// GPM advantage moderates (§6.1).
		for _, run := range s.touchedSections(setKeys, delKeys) {
			if err := workloads.PersistBuffer(env, s.pmFile, run.off, s.mirror+uint64(run.off), run.n); err != nil {
				return err
			}
		}
	}
	return nil
}

// Truncate empties an undo log that a crash left behind a committed batch:
// the flag clear commits, so a power failure inside the log truncation
// after it leaves entries no recovery may undo. A restart that finds the
// flag clear calls it before the next batch logs. It reads the tails on the
// host and writes only when one is nonzero, so a clean restart costs no
// simulated time.
func (s *Store) Truncate(tl TxLog) {
	n := tl.Grid * kvsTPB
	if !tl.Log.IsHCL() {
		n = tl.Log.Partitions()
	}
	for tid := 0; tid < n; tid++ {
		if tl.Log.HostTail(tid) != 0 {
			tl.Log.HostClearAll()
			return
		}
	}
}

// kvsSection is the granularity at which CAP ships the store (16 KB
// pre-defined chunks).
const kvsSection = 16 << 10

type secRun struct{ off, n int64 }

// touchedSections returns the merged section runs the mutations touch.
func (s *Store) touchedSections(setKeys, delKeys []uint64) []secRun {
	size := s.bytes()
	nSections := (size + kvsSection - 1) / kvsSection
	touched := make([]bool, nSections)
	for _, keys := range [][]uint64{setKeys, delKeys} {
		for _, key := range keys {
			touched[int64(s.SlotOf(key))*pairBytes/kvsSection] = true
		}
	}
	var runs []secRun
	for sec := int64(0); sec < nSections; sec++ {
		if !touched[sec] {
			continue
		}
		e := sec
		for e+1 < nSections && touched[e+1] {
			e++
		}
		off := sec * kvsSection
		end := min((e+1)*kvsSection, size)
		runs = append(runs, secRun{off, end - off})
		sec = e
	}
	return runs
}

// Undo is the Fig 6b recovery kernel over one undo log: every thread rolls
// its logged entries back newest-first into the durable store until its
// partition is empty, removing each entry only after its rollback is
// durable. It returns the number of entries undone.
func (s *Store) Undo(tl TxLog) (int64, error) {
	ctx := s.env.Ctx
	pm, sets, log := s.pmFile.Mmap(), s.sets, tl.Log
	var undone atomic.Int64 // recovery kernel threads run concurrently
	var kerr error
	ctx.PersistBegin()
	ctx.Launch("kvs-recover", tl.Grid, kvsTPB, func(t *gpu.Thread) {
		// A thread may have logged more than one entry (e.g. one SET and
		// one DELETE share its slot range).
		var entry [logEntryBytes]byte
		for log.Read(t, entry[:], -1) == nil {
			set := int(binary.LittleEndian.Uint32(entry[0:]))
			way := int(binary.LittleEndian.Uint32(entry[4:]))
			if set >= sets || way >= ways {
				kerr = fmt.Errorf("kvstore: corrupt log entry (set=%d way=%d)", set, way)
				return
			}
			addr := s.slotAddr(pm, set, way)
			t.StoreU64(addr, binary.LittleEndian.Uint64(entry[8:]))
			t.StoreU64(addr+8, binary.LittleEndian.Uint64(entry[16:]))
			gpm.Persist(t)
			if err := log.Remove(t, logEntryBytes, -1); err != nil {
				kerr = err
				return
			}
			undone.Add(1)
		}
	})
	ctx.PersistEnd()
	return undone.Load(), kerr
}

// ReloadMirror reloads the HBM working mirror from the durable store (DMA
// down): the restart-time data load.
func (s *Store) ReloadMirror() {
	sp := s.env.Ctx.Space
	sp.WriteCPU(s.mirror, sp.SnapshotPersistent(s.pmFile.Mmap(), int(s.bytes())))
	s.env.Ctx.Timeline.Add("restore", sp.DMA.TransferDown(s.bytes()))
}

// ApplyModel folds committed mutations into a slot model (two words per
// slot: key, value): a SET claims its slot, a DELETE empties it only if the
// key still holds it.
func (s *Store) ApplyModel(model, setKeys, setVals, delKeys []uint64) {
	for i, key := range setKeys {
		slot := s.SlotOf(key)
		model[slot*2], model[slot*2+1] = key, setVals[i]
	}
	for _, key := range delKeys {
		if slot := s.SlotOf(key); model[slot*2] == key {
			model[slot*2], model[slot*2+1] = 0, 0
		}
	}
}

// CheckDurable compares the durable store with a slot model, slot by slot.
func (s *Store) CheckDurable(model []uint64) error {
	snap := s.env.Ctx.Space.SnapshotPersistent(s.pmFile.Mmap(), int(s.bytes()))
	for slot := 0; slot < s.Slots(); slot++ {
		key := binary.LittleEndian.Uint64(snap[slot*pairBytes:])
		val := binary.LittleEndian.Uint64(snap[slot*pairBytes+8:])
		if key != model[slot*2] || val != model[slot*2+1] {
			return fmt.Errorf("durable slot %d = (%d,%d), want (%d,%d)",
				slot, key, val, model[slot*2], model[slot*2+1])
		}
	}
	return nil
}

func u64Bytes(vals []uint64) []byte {
	out := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], v)
	}
	return out
}
