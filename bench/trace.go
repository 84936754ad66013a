package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a workload, a phase inside
// it, or one call into a layer's public function. Parent is the ID of the
// span that caused it (0 = root).
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
}

// tracer keeps spans in memory and writes them once at exit. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu       sync.Mutex
	zero     time.Time
	workload string
	spans    []span
}

func newTracer() *tracer { return &tracer{zero: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload,
		StartUS: float64(time.Since(t.zero)) / 1e3,
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndUS = float64(time.Since(t.zero)) / 1e3
	t.mu.Unlock()
}

// add records a span whose endpoints were measured elsewhere (a sampled
// request's stages, reported by the server as wall instants).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload,
		StartUS: float64(start.Sub(t.zero)) / 1e3, EndUS: float64(end.Sub(t.zero)) / 1e3,
	})
	return len(t.spans)
}

// selfTimes returns, per layer (the span name up to its first '.'), the
// summed self time in µs: each span's duration minus the part of it that
// its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := make(map[int][][2]float64)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], [2]float64{s.StartUS, s.EndUS})
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += (s.EndUS - s.StartUS) - covered(children[s.ID], s.StartUS, s.EndUS)
	}
	return self
}

// covered is the length of [lo, hi] that the union of iv covers.
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum float64
	at := lo
	for _, v := range iv {
		a, b := max(v[0], at), min(v[1], hi)
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSelfTimes lists each layer's self time, largest first.
func (t *tracer) printSelfTimes() {
	self := t.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Printf("self time by layer (%d spans):\n", len(t.spans))
	for _, l := range layers {
		fmt.Printf("  %-12s %12.1f ms\n", l, self[l]/1e3)
	}
}
