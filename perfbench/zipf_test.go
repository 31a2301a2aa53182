package main

import (
	"math/rand"
	"slices"
	"testing"
)

func TestZipfSequenceDeterministicPerSeed(t *testing.T) {
	a := zipfSequence(5000, 300, zipfS, rand.New(rand.NewSource(7)))
	b := zipfSequence(5000, 300, zipfS, rand.New(rand.NewSource(7)))
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two different sequences")
	}
	c := zipfSequence(5000, 300, zipfS, rand.New(rand.NewSource(8)))
	if slices.Equal(a, c) {
		t.Fatal("two seeds gave the same order")
	}
	if !slices.Equal(histogram(a, 300), histogram(c, 300)) {
		t.Fatal("two seeds gave different histograms; only the order may change")
	}
}

func TestZipfSequenceFollowsTheLaw(t *testing.T) {
	const n, pool = 10000, 500
	h := histogram(zipfSequence(n, pool, zipfS, rand.New(rand.NewSource(1))), pool)
	total := 0
	for k, c := range h {
		total += c
		if k > 0 && c > h[k-1] {
			t.Fatalf("rank %d drawn %d times, more than rank %d (%d)", k, c, k-1, h[k-1])
		}
	}
	if total != n {
		t.Fatalf("%d draws, want %d", total, n)
	}
	// Rank 1 against rank 10: (10/1)^1.1 ≈ 12.6, within apportionment
	// rounding.
	if r := float64(h[0]) / float64(h[9]); r < 12 || r > 13.2 {
		t.Fatalf("rank-1/rank-10 ratio %.2f, want ≈12.6", r)
	}
}

func histogram(seq []int, pool int) []int {
	h := make([]int, pool)
	for _, k := range seq {
		h[k]++
	}
	return h
}
