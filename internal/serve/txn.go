package serve

import "github.com/gpm-sim/gpm/internal/sim"

// txnOp is a transaction COMMIT's write set riding a request (op 'C').
type txnOp struct {
	keys []uint64
	vals []uint64
	dels []bool
	cts  uint64 // commit timestamp, assigned at admission after validation
}

// txnFingerprint condenses a COMMIT payload (snapshot + ordered write set)
// for ID-reuse detection, the transaction analogue of fingerprint().
func txnFingerprint(snap uint64, keys, vals []uint64, dels []bool) uint64 {
	h := sim.Mix64(snap + 0x9e3779b97f4a7c15)
	for i := range keys {
		d := uint64(0)
		if dels[i] {
			d = 1
		}
		h = sim.Mix64(h ^ sim.Mix64(keys[i]) ^ sim.Mix64(vals[i]+0xd1b54a32d192ed03) ^ d)
	}
	return h
}

// TxnStatus is the /statusz transaction section: live snapshot count and
// the oracle's allocation/stability frontier, plus each shard's MVCC read
// floor (the oldest snapshot its slot rows can still answer) and the rows
// its history holds.
type TxnStatus struct {
	ActiveSnapshots int      `json:"active_snapshots"`
	OracleTS        uint64   `json:"oracle_ts"`
	StableFloor     uint64   `json:"stable_floor"`
	MVCCFloors      []uint64 `json:"mvcc_floor_by_shard"`
	MVCCRows        []int    `json:"mvcc_rows_by_shard"`
}

// TxnStatus reports the server's MVCC/transaction state (safe from any
// goroutine while serving).
func (s *Server) TxnStatus() TxnStatus {
	ts := TxnStatus{
		ActiveSnapshots: s.snaps.active(),
		OracleTS:        s.oracle.current(),
		StableFloor:     s.oracle.snapshot(),
	}
	for _, w := range s.workers {
		floor, rows := w.shard.mvcc.stats()
		ts.MVCCFloors = append(ts.MVCCFloors, floor)
		ts.MVCCRows = append(ts.MVCCRows, rows)
	}
	return ts
}
