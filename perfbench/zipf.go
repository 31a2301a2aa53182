package main

import (
	"math"
	"math/rand"
)

// zipfSequence returns n ranks in [0, pool) drawn from the Zipf(s) law
// P(rank k) ∝ (k+1)^-s, in an order shuffled by rng. The histogram is the
// law apportioned exactly (largest remainder), not sampled, so every seed
// sends the same multiset of ranks and only the arrival order changes.
// Sampled histograms would move the hit ratio and the TP/FP mix from seed
// to seed by more than the effects the benchmark is meant to resolve.
func zipfSequence(n, pool int, s float64, rng *rand.Rand) []int {
	weights := make([]float64, pool)
	var total float64
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -s)
		total += weights[k]
	}
	counts := make([]int, pool)
	rems := make([]float64, pool)
	assigned := 0
	for k, w := range weights {
		exact := float64(n) * w / total
		counts[k] = int(exact)
		rems[k] = exact - float64(counts[k])
		assigned += counts[k]
	}
	// Largest remainder: hand the leftover draws to the ranks whose exact
	// share was truncated most, lower ranks first on ties.
	for ; assigned < n; assigned++ {
		best := 0
		for k := 1; k < pool; k++ {
			if rems[k] > rems[best] {
				best = k
			}
		}
		counts[best]++
		rems[best] = -1
	}
	seq := make([]int, 0, n)
	for k, c := range counts {
		for ; c > 0; c-- {
			seq = append(seq, k)
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}
