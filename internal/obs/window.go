// Package obs is the live observability plane over the telemetry layer:
// rolling-window streaming stats, a Prometheus text renderer, per-request
// pipeline traces with head-based + slow-threshold sampling, a structured
// recovery audit trail, and the admin HTTP surface (/metrics, /healthz,
// /statusz, /debug/trace) that exposes all of it while a server runs.
//
// The package depends only on telemetry and the stdlib; it never imports
// the serving or simulation layers. Hosts (gpmserve, the serve chaos
// campaign, gpmload's progress reporter) wire it in through plain values and
// closures, so obs stays reusable for any future front-end.
package obs

import (
	"fmt"
	"sync"
	"time"

	"github.com/gpm-sim/gpm/internal/telemetry"
)

// Windows converts the cumulative-since-boot telemetry registry into
// rates and quantiles over recent time windows. It keeps a ring of full
// registry snapshots, one per Advance tick; a query diffs the newest
// snapshot against the one closest to (now - window). Memory is bounded
// by horizon/tick snapshots regardless of how long the server runs.
//
// Advance is normally driven by a ticker goroutine (see Start); queries
// are safe from any goroutine.
type Windows struct {
	reg     *telemetry.Registry
	tick    time.Duration
	horizon time.Duration

	mu    sync.Mutex
	snaps []timedSnap // ascending by time; last is newest
	stop  chan struct{}
	done  chan struct{}
}

type timedSnap struct {
	at   time.Time
	snap telemetry.Snapshot
}

// Defaults for NewWindows zero arguments.
const (
	DefaultTick    = 250 * time.Millisecond
	DefaultHorizon = 60 * time.Second
)

// StandardWindows are the spans /statusz reports: last 1s, 10s, 60s.
var StandardWindows = []time.Duration{time.Second, 10 * time.Second, 60 * time.Second}

// NewWindows builds a window layer over reg. tick 0 means DefaultTick,
// horizon 0 means DefaultHorizon; horizon is clamped to at least one tick.
func NewWindows(reg *telemetry.Registry, tick, horizon time.Duration) *Windows {
	if tick <= 0 {
		tick = DefaultTick
	}
	if horizon <= 0 {
		horizon = DefaultHorizon
	}
	if horizon < tick {
		horizon = tick
	}
	return &Windows{reg: reg, tick: tick, horizon: horizon}
}

// Advance takes one snapshot stamped at now and drops snapshots older
// than the horizon (keeping one beyond it so a full-horizon query always
// has a base). Call it on a steady tick; irregular calls only degrade
// window resolution, never correctness.
func (w *Windows) Advance(now time.Time) {
	if w == nil {
		return
	}
	snap := w.reg.Snapshot()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.snaps = append(w.snaps, timedSnap{at: now, snap: snap})
	cut := now.Add(-w.horizon)
	drop := 0
	for drop < len(w.snaps)-1 && w.snaps[drop+1].at.Before(cut) {
		drop++
	}
	if drop > 0 {
		w.snaps = append(w.snaps[:0], w.snaps[drop:]...)
	}
}

// Start launches the ticker goroutine driving Advance. Stop terminates
// it. Start on a nil receiver is a no-op.
func (w *Windows) Start() {
	if w == nil || w.stop != nil {
		return
	}
	w.Advance(time.Now())
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		t := time.NewTicker(w.tick)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				w.Advance(now)
			case <-w.stop:
				return
			}
		}
	}()
}

// Stop terminates the ticker goroutine started by Start.
func (w *Windows) Stop() {
	if w == nil || w.stop == nil {
		return
	}
	close(w.stop)
	<-w.done
	w.stop, w.done = nil, nil
}

// Window returns the delta view covering roughly the last d of recorded
// history. ok is false when fewer than two snapshots exist (no elapsed
// time to rate over). When the ring holds less history than d, the delta
// covers what exists and Elapsed reports the actual span.
func (w *Windows) Window(d time.Duration) (WindowStats, bool) {
	if w == nil {
		return WindowStats{}, false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.snaps) < 2 {
		return WindowStats{}, false
	}
	newest := w.snaps[len(w.snaps)-1]
	cut := newest.at.Add(-d)
	base := w.snaps[0]
	// Newest snapshot at or before the cut; linear scan is fine at <=241
	// entries.
	for _, s := range w.snaps[:len(w.snaps)-1] {
		if s.at.After(cut) {
			break
		}
		base = s
	}
	el := newest.at.Sub(base.at)
	if el <= 0 {
		return WindowStats{}, false
	}
	return WindowStats{Elapsed: el, older: base.snap, newer: newest.snap}, true
}

// WindowStats is the diff between two registry snapshots: everything
// /statusz reports about "the last N seconds" computes from it.
type WindowStats struct {
	Elapsed      time.Duration
	older, newer telemetry.Snapshot
}

// CounterDelta returns how much the named counter grew across the window.
func (ws WindowStats) CounterDelta(name string) int64 {
	return ws.newer.Counters[name] - ws.older.Counters[name]
}

// CounterRate returns the counter's growth per second across the window.
func (ws WindowStats) CounterRate(name string) float64 {
	if ws.Elapsed <= 0 {
		return 0
	}
	return float64(ws.CounterDelta(name)) / ws.Elapsed.Seconds()
}

// HistCount returns how many observations the named histogram gained.
func (ws WindowStats) HistCount(name string) int64 {
	return ws.newer.Histograms[name].Count() - ws.older.Histograms[name].Count()
}

// HistRate returns histogram observations per second across the window.
func (ws WindowStats) HistRate(name string) float64 {
	if ws.Elapsed <= 0 {
		return 0
	}
	return float64(ws.HistCount(name)) / ws.Elapsed.Seconds()
}

// Quantile estimates the q-th quantile (0 < q <= 1) of the values the
// named histogram observed during the window, interpolating linearly
// within the bucket that crosses the target rank. Observations in the
// +Inf overflow bucket report the largest finite bound (a floor, clearly
// better than inventing a value). ok is false when the histogram gained
// no observations in the window.
func (ws WindowStats) Quantile(name string, q float64) (float64, bool) {
	nh, oh := ws.newer.Histograms[name], ws.older.Histograms[name]
	if len(nh.Counts) == 0 {
		return 0, false
	}
	deltas := make([]int64, len(nh.Counts))
	var total int64
	for i := range nh.Counts {
		d := nh.Counts[i]
		if i < len(oh.Counts) {
			d -= oh.Counts[i]
		}
		if d < 0 {
			d = 0 // defensive: snapshots are monotone, but never go negative
		}
		deltas[i] = d
		total += d
	}
	if total == 0 {
		return 0, false
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	var lower float64
	for i, d := range deltas {
		if d == 0 {
			if i < len(nh.Bounds) {
				lower = float64(nh.Bounds[i])
			}
			continue
		}
		next := cum + float64(d)
		if next >= target {
			if i >= len(nh.Bounds) {
				// Overflow bucket: no finite upper bound to interpolate to.
				return lower, true
			}
			upper := float64(nh.Bounds[i])
			frac := (target - cum) / float64(d)
			return lower + (upper-lower)*frac, true
		}
		cum = next
		if i < len(nh.Bounds) {
			lower = float64(nh.Bounds[i])
		}
	}
	return lower, true
}

// WindowSummary is one window's worth of the /statusz serving overview.
type WindowSummary struct {
	Window    string  `json:"window"`
	Ops       int64   `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50US     float64 `json:"p50_us"`
	P95US     float64 `json:"p95_us"`
	P99US     float64 `json:"p99_us"`
}

// Summary computes the standard rate/quantile view of one latency
// histogram (microsecond-valued, by repo convention) over each requested
// window. Windows with no data report zeros rather than being omitted,
// so the JSON shape is stable for dashboards.
func (w *Windows) Summary(histName string, spans ...time.Duration) []WindowSummary {
	if len(spans) == 0 {
		spans = StandardWindows
	}
	out := make([]WindowSummary, 0, len(spans))
	for _, d := range spans {
		s := WindowSummary{Window: d.String()}
		if ws, ok := w.Window(d); ok {
			s.Ops = ws.HistCount(histName)
			s.OpsPerSec = ws.HistRate(histName)
			s.P50US, _ = ws.Quantile(histName, 0.50)
			s.P95US, _ = ws.Quantile(histName, 0.95)
			s.P99US, _ = ws.Quantile(histName, 0.99)
		}
		out = append(out, s)
	}
	return out
}

// FormatRate renders an ops/s figure compactly for progress lines.
func FormatRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk", r/1e3)
	default:
		return fmt.Sprintf("%.0f", r)
	}
}
