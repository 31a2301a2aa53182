package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile. With fewer samples than that the percentile is not supported
// by the run, so the tail is reported at the highest rank that still leaves
// minBeyond samples above it.
const minBeyond = 10

// nearestRank returns the 1-based nearest-rank index of the p-th percentile
// (0 < p <= 100) of n samples: the smallest rank r with r/n >= p/100.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the nearest-rank p-th percentile of xs, lowered
// when needed to the highest rank with at least minBeyond samples beyond
// it, together with the percentile actually reported. ok is false when xs
// has no more than minBeyond samples, so no rank qualifies. xs is sorted in
// place.
func tailPercentile(xs []float64, p float64) (v, reported float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	sort.Float64s(xs)
	r := nearestRank(n, p)
	if r > n-minBeyond {
		r = n - minBeyond
	}
	return xs[r-1], 100 * float64(r) / float64(n), true
}

// median returns the nearest-rank median of xs (sorted in place), or 0 for
// no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[nearestRank(len(xs), 50)-1]
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
