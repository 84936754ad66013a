package serve

import "testing"

// The space-saving sketch keeps at most k tracked keys; the newcomer that
// displaces the coldest key inherits its count+1, and the hot count follows.
func TestHotKeyCacheSketchEviction(t *testing.T) {
	h := newHotKeySketch(2)
	for i := 0; i < 5; i++ {
		h.Observe(1) // clearly hottest
	}
	h.Observe(2)
	h.Observe(2)
	if h.hot != 2 {
		t.Fatalf("hot = %d, want 2", h.hot)
	}
	// Key 3 displaces the coldest (2) and inherits its count: immediately
	// hot, while 2 leaves the sketch.
	h.Observe(3)
	if !h.Hot(3) {
		t.Error("newcomer should inherit the evictee's count and be hot")
	}
	if h.Hot(2) {
		t.Error("evicted key should no longer be hot")
	}
	if !h.Hot(1) {
		t.Error("hottest key evicted")
	}
	if h.hot != 2 {
		t.Errorf("hot = %d after eviction, want 2", h.hot)
	}
	h.Reset()
	if h.Hot(1) || h.hot != 0 {
		t.Errorf("after Reset: Hot(1) = %v, hot = %d; want cold", h.Hot(1), h.hot)
	}
}
