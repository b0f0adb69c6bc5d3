package main

import (
	"math"
	"sort"
)

// tailLadder is the set of tail percentiles a timing may be reported
// at, highest first. A timing is reported at the highest one that still
// has at least minBeyond samples above it, so a tail is never a single
// outlier.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted samples: the smallest sample with at least p% of the samples
// at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile of
// n samples.
func rankIndex(n int, p float64) int {
	// The epsilon keeps float rounding (99.9/100*10000 = 9990.000000000002)
	// from moving an exact rank up by one.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailPercentile picks the highest percentile of tailLadder with at
// least minBeyond of n samples beyond it; ok is false when n is too
// small for any of them.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-1-rankIndex(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// timing summarizes raw samples of one timing: the median, and the tail
// at the percentile tailPercentile selects for the sample count.
type timing struct {
	N     int
	P50   float64
	TailP float64 // 0 when the sample is too small for a tail
	Tail  float64
	Max   float64
}

func summarize(samples []float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{N: len(s)}
	if len(s) == 0 {
		return t
	}
	t.P50 = median(s)
	t.Max = s[len(s)-1]
	if p, ok := tailPercentile(len(s)); ok {
		t.TailP, t.Tail = p, percentile(s, p)
	}
	return t
}

// median returns the median of samples (the mean of the two middle ones
// for an even count); samples need not be sorted.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
