package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 over 40 samples is one request's luck, not a tail.
const minBeyond = 10

// ladder is the set of percentiles the picker chooses from, ascending.
var ladder = []float64{50, 75, 90, 95, 99}

// percentile reads the p-th percentile (nearest rank) from sorted
// samples; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples. Multiplying before dividing keeps whole results exact.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100)))
}

// beyond counts the samples strictly above the p-th percentile's rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

// supported returns the highest ladder percentile not above want that
// still has minBeyond samples beyond it. With too few samples even for
// the median it returns 50: a median of few samples is still the least
// misleading single number.
func supported(n int, want float64) float64 {
	best := ladder[0]
	for _, p := range ladder {
		if p <= want && beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// tail reports the want-th percentile of samples, stepping down the
// ladder until minBeyond samples lie beyond it, and which percentile it
// settled on. Op counts are fixed per workload, so the choice is too.
func tail(samples []float64, want float64) (value, used float64) {
	s := sortedCopy(samples)
	used = supported(len(s), want)
	return percentile(s, used), used
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the 50th percentile, interpolating between the two middle
// samples of an even count (round medians are taken over few values).
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0 (a counter pair that never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
