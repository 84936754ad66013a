// Package arena recycles the large arrays that back a simulated node's
// memories. A crash campaign builds hundreds of short-lived nodes, and
// zeroing a fresh multi-MiB array for each one costs more host time than
// simulating the run; a dead node's arrays, with only their dirtied prefix
// cleared, serve the next node of the same size instead.
//
// Pools are keyed by length and built on sync.Pool, so arrays nobody asks
// for again are still reclaimed by the garbage collector.
package arena

import "sync"

// Pool recycles slices of T by length. The zero value is ready to use.
type Pool[T any] struct {
	bySize sync.Map // int -> *sync.Pool of *[]T
}

// Get returns a slice of length n whose elements are all zero.
func (p *Pool[T]) Get(n int) []T {
	if sp, ok := p.bySize.Load(n); ok {
		if v := sp.(*sync.Pool).Get(); v != nil {
			return *v.(*[]T)
		}
	}
	return make([]T, n)
}

// Put hands s back for a later Get of the same length. Only s[:dirty] may
// be nonzero: Put clears that prefix, so every slice Get hands out reads
// all zero. The caller must not touch s afterwards.
func (p *Pool[T]) Put(s []T, dirty int) {
	clear(s[:dirty])
	sp, ok := p.bySize.Load(len(s))
	if !ok {
		sp, _ = p.bySize.LoadOrStore(len(s), new(sync.Pool))
	}
	sp.(*sync.Pool).Put(&s)
}
