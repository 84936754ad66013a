package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
)

type opKind uint8

const (
	opSet opKind = iota
	opGet
	opDel
)

// mix is a KV traffic mix: the GET and DEL fractions (SET is the rest) and
// the key popularity.
type mix struct {
	get, del float64
	zipf     bool // zipf theta 0.99 over the connection's keys, else uniform
}

const (
	zipfTheta = 0.99
	golden    = 0x9e3779b97f4a7c15
)

// mix64 is the splitmix64 finalizer: a bijective scramble of a counter, so
// op i of a stream is a pure function of (seed, conn, i).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pickKeys draws total distinct keys from seed such that no two of them
// share a store slot (the store is direct-mapped per key: a colliding SET
// would evict the other key and make replies uncheckable), split evenly
// between conns owners: connection c owns the keys with (key>>1)%conns == c,
// so with key%shards routing every connection reaches every shard while no
// key is touched by two connections.
func pickKeys(seed uint64, total, conns int, slotOf func(key uint64) (shard, slot int)) ([][]uint64, error) {
	per := total / conns
	owned := make([][]uint64, conns)
	used := make(map[[2]int]bool, total)
	for i, got := uint64(0), 0; got < per*conns; i++ {
		if i > uint64(total)*64 {
			return nil, fmt.Errorf("bench: cannot place %d keys without slot collisions", total)
		}
		key := 1 + mix64(seed*golden+i)%(1<<40)
		c := int((key >> 1) % uint64(conns))
		if len(owned[c]) == per {
			continue
		}
		sh, slot := slotOf(key)
		if used[[2]int{sh, slot}] {
			continue
		}
		used[[2]int{sh, slot}] = true
		owned[c] = append(owned[c], key)
		got++
	}
	return owned, nil
}

// zipfCDF is the cumulative popularity of ranks 0..n-1 under zipf(theta).
func zipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	var z float64
	for i := range cdf {
		z += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = z
	}
	for i := range cdf {
		cdf[i] /= z
	}
	return cdf
}

// stream is one connection's op generator.
type stream struct {
	base   uint64
	keys   []uint64
	cdf    []float64 // nil: uniform
	getCut uint64    // kind draw < getCut: GET
	delCut uint64    // kind draw < delCut: DEL
}

const kindSpace = 1 << 24

func newStream(seed uint64, conn int, keys []uint64, m mix) *stream {
	s := &stream{
		base:   mix64(seed*golden ^ uint64(conn+1)*0xd1b54a32d192ed03),
		keys:   keys,
		getCut: uint64(m.get * kindSpace),
	}
	s.delCut = s.getCut + uint64(m.del*kindSpace)
	if m.zipf {
		s.cdf = zipfCDF(len(keys), zipfTheta)
	}
	return s
}

// op returns operation i of the stream: its kind, the index of its key in
// s.keys, and the SET value, which lies in [1, 1e9].
func (s *stream) op(i uint64) (kind opKind, idx int, val uint64) {
	x := mix64(s.base + i*golden)
	y := mix64(x ^ 0xa0761d6478bd642f)
	switch k := x % kindSpace; {
	case k < s.getCut:
		kind = opGet
	case k < s.delCut:
		kind = opDel
	default:
		kind = opSet
		val = 1 + mix64(y)%1_000_000_000
	}
	if s.cdf == nil {
		idx = int((y >> 11) % uint64(len(s.keys)))
	} else {
		u := float64(y>>11) / (1 << 53)
		idx = sort.SearchFloat64s(s.cdf, u) % len(s.keys)
	}
	return kind, idx, val
}

// appendRequest encodes one wire-protocol-v1 request line.
func appendRequest(b []byte, kind opKind, key, val uint64) []byte {
	switch kind {
	case opSet:
		b = append(b, "SET "...)
	case opGet:
		b = append(b, "GET "...)
	default:
		b = append(b, "DEL "...)
	}
	b = strconv.AppendUint(b, key, 10)
	if kind == opSet {
		b = append(b, ' ')
		b = strconv.AppendUint(b, val, 10)
	}
	return append(b, '\n')
}

// hash digests the first n request lines of the stream — what the program
// under test would see.
func (s *stream) hash(n uint64) uint64 {
	h := fnv.New64a()
	var buf []byte
	for i := uint64(0); i < n; i++ {
		kind, idx, val := s.op(i)
		buf = appendRequest(buf[:0], kind, s.keys[idx], val)
		h.Write(buf)
	}
	return h.Sum64()
}
