package serve

// hotMinHits is the sketch count at which a key is hot: a GET of a slot
// whose committed occupant is hot is answered from the committed image.
const hotMinHits = 2

// hotKeys is the sketch capacity (distinct tracked keys) per shard.
const hotKeys = 128

// hotKeySketch is the space-saving top-K sketch that decides which slots
// the shard's read path answers from the committed image (the eADR-domain
// read path) instead of a kernel trip. It is owned by the batcher
// goroutine and takes no lock.
type hotKeySketch struct {
	k      int
	counts map[uint64]int64 // space-saving counters, key -> hits
	hot    int              // tracked keys at or above hotMinHits (hot_slots)
}

func newHotKeySketch(k int) *hotKeySketch {
	return &hotKeySketch{k: k, counts: make(map[uint64]int64, k)}
}

// Observe counts one access. When the sketch is full, the coldest tracked
// key is evicted and the newcomer inherits its count + 1 (the space-saving
// overestimate bound) — and with it a hot evictee's place in hot.
func (h *hotKeySketch) Observe(key uint64) {
	c, ok := h.counts[key]
	if !ok && len(h.counts) >= h.k {
		var coldKey uint64
		c = -1
		for k2, c2 := range h.counts {
			if c < 0 || c2 < c {
				coldKey, c = k2, c2
			}
		}
		delete(h.counts, coldKey)
	}
	h.counts[key] = c + 1
	if c+1 == hotMinHits {
		h.hot++
	}
}

// Hot reports whether key is tracked with enough hits to be read from the
// committed image.
func (h *hotKeySketch) Hot(key uint64) bool { return h.counts[key] >= hotMinHits }

// Reset forgets every counter: after a crash-restart the read path starts
// cold.
func (h *hotKeySketch) Reset() {
	clear(h.counts)
	h.hot = 0
}
