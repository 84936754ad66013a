package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported: with fewer, the figure is one or two outliers, not
// a percentile.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted and whether the
// sample supports it: a percentile above the median is reported only when
// at least minBeyond samples lie beyond it.
func percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	beyond := n - 1 - idx
	if q > 0.5 && beyond < minBeyond {
		return sorted[idx], false
	}
	return sorted[idx], true
}

// usAt is percentile for nanosecond samples, in µs.
func usAt(sortedNS []int64, q float64) (us float64, ok bool) {
	v, ok := percentile(sortedNS, q)
	return float64(v) / 1e3, ok
}

// summary is one reported timing: the median over trials with the trials'
// own spread and the number of samples behind it.
type summary struct {
	Median, Min, Max float64
	Trials           int
	Samples          int64
}

// summarize reduces per-trial values to their median, min and max.
func summarize(trials []float64, samples int64) summary {
	if len(trials) == 0 {
		return summary{}
	}
	s := append([]float64(nil), trials...)
	sort.Float64s(s)
	return summary{Median: medianSorted(s), Min: s[0], Max: s[len(s)-1], Trials: len(s), Samples: samples}
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return medianSorted(s)
}

func sortInt64(v []int64) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
