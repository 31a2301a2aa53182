package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the functions must sort
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 50, 50}, {100, 99, 99}, {100, 100, 100}, {101, 50, 51},
		{1, 99, 1}, {10, 0.1, 1}, {2000, 99, 1980},
	} {
		if got := nearestRank(c.n, c.p); got != c.want {
			t.Errorf("nearestRank(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n            int
		want         float64
		wantReported float64
	}{
		// Enough samples: the plain nearest-rank p99.
		{2000, 1980, 99},
		{1000, 990, 99},
		// Too few for p99: the highest rank with ten samples beyond it.
		{500, 490, 98},
		{11, 1, 100.0 / 11},
	} {
		v, reported, ok := tailPercentile(seq(c.n), 99)
		if !ok || v != c.want || reported != c.wantReported {
			t.Errorf("n=%d: tailPercentile = (%v, %v, %v), want (%v, %v, true)",
				c.n, v, reported, ok, c.want, c.wantReported)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", c.n, beyond)
		}
	}
	if _, _, ok := tailPercentile(seq(10), 99); ok {
		t.Error("ten samples cannot support a tail with ten beyond it")
	}
}

func TestMedian(t *testing.T) {
	if got := median(seq(5)); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if got := median(seq(4)); got != 2 {
		t.Errorf("nearest-rank median of 1..4 = %v, want 2", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestLatencyIsMedianOverSegments(t *testing.T) {
	var ph phase
	for s := 0; s < 4; s++ {
		scale := 1.0
		if s == 2 {
			scale = 10 // a stall that backs up one segment
		}
		for i := 1; i <= segmentSamples; i++ {
			ph.latencies = append(ph.latencies, scale*float64(i))
		}
	}
	// A short tail joins the last segment instead of forming its own.
	ph.latencies = append(ph.latencies, 1, 1, 1)
	p50, tail, err := ph.latency()
	if err != nil {
		t.Fatal(err)
	}
	wantTail := float64(segmentSamples - minBeyond)
	if p50 != segmentSamples/2 || tail != wantTail {
		t.Fatalf("latency = (%v, %v), want (%v, %v): one slow segment must not decide the figures",
			p50, tail, segmentSamples/2, wantTail)
	}
	if _, _, err := (phase{latencies: seq(minBeyond)}).latency(); err == nil {
		t.Fatal("ten samples cannot support a tail")
	}
}
