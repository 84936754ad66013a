package main

import (
	"sort"
	"time"
)

// morePasses reports whether a fixed-work workload (sim-suite, crash-sweep)
// should run another whole pass: one always, then more while -seconds are
// not yet used, so a run overshoots -seconds by less than one pass. A
// traced or smoke run makes one pass.
func (rc *runCtx) morePasses(done int, start time.Time) bool {
	if rc.traced || rc.smoke {
		return done == 0
	}
	return done == 0 || time.Since(start) < rc.measure()
}

// moreSetups reports whether set-up should be repeated once more for its
// median: five times at least, and up to twenty-five while that takes under
// a second, because a set-up of 20 ms read one time in five is too noisy to
// gate. A traced or smoke run, which does not report setup_s, sets up once.
func (rc *runCtx) moreSetups(done int, start time.Time) bool {
	if rc.traced || rc.smoke {
		return done == 0
	}
	return done < 5 || done < 25 && time.Since(start) < time.Second
}

// passStats are the host-clock figures of a fixed-work workload.
type passStats struct{ perSec, p50, tail summary }

// reducePasses turns walls[pass][unit], the host wall in seconds of each
// unit of work in each pass, into runs per second, the median wall of one
// run and the slowest, in µs. runs[unit] is how many runs the unit holds
// (one for a simulator run, sixteen for a workload's crash campaign). The
// reported figures are computed from each unit's median wall over the
// passes; min and max are what the single passes read.
func reducePasses(walls [][]float64, runs []int) passStats {
	figures := func(w []float64) (perSec, p50, tail float64) {
		var total float64
		n := 0
		perRun := make([]float64, len(w))
		for u := range w {
			total += w[u]
			n += runs[u]
			perRun[u] = w[u] * 1e6 / float64(runs[u])
		}
		sort.Float64s(perRun)
		return float64(n) / total, medianSorted(perRun), perRun[len(perRun)-1]
	}
	var perSec, p50, tail []float64
	for _, w := range walls {
		a, b, c := figures(w)
		perSec, p50, tail = append(perSec, a), append(p50, b), append(tail, c)
	}
	unit := make([]float64, len(runs))
	var samples int64
	for u := range unit {
		var w []float64
		for _, pass := range walls {
			w = append(w, pass[u])
		}
		unit[u] = median(w)
		samples += int64(runs[u] * len(walls))
	}
	a, b, c := figures(unit)
	over := func(trials []float64, v float64) summary {
		s := summarize(trials, samples)
		s.Median = v
		return s
	}
	return passStats{over(perSec, a), over(p50, b), over(tail, c)}
}
