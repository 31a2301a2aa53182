package preprocess

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/tensor"
)

// Preprocessor output feeds the cache key and every member network, so the
// fast ImAdj, Gamma and AdHist must reproduce the straightforward
// implementations below bit for bit. These are the sort-based, Pow-based and
// append-based versions they replaced, kept as the reference.

func refImAdj(x *tensor.T) *tensor.T {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := tensor.New(c, h, w)
	for ci := 0; ci < c; ci++ {
		plane := x.Data[ci*h*w : (ci+1)*h*w]
		oplane := out.Data[ci*h*w : (ci+1)*h*w]
		sorted := append([]float64(nil), plane...)
		sort.Float64s(sorted)
		lo := sorted[len(sorted)/100]
		hi := sorted[len(sorted)-1-len(sorted)/100]
		span := hi - lo
		if span < 1e-9 {
			for i, v := range plane {
				oplane[i] = clamp01(v)
			}
			continue
		}
		for i, v := range plane {
			oplane[i] = clamp01((v - lo) / span)
		}
	}
	return out
}

func refGamma(x *tensor.T, g float64) *tensor.T {
	out := tensor.New(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = clamp01(math.Pow(clamp01(v), g))
	}
	return out
}

func refAdHist(x *tensor.T) *tensor.T {
	const tiles = 4
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := tensor.New(c, h, w)
	for ci := 0; ci < c; ci++ {
		plane := x.Data[ci*h*w : (ci+1)*h*w]
		oplane := out.Data[ci*h*w : (ci+1)*h*w]
		for ty := 0; ty < tiles; ty++ {
			for tx := 0; tx < tiles; tx++ {
				y0, y1 := ty*h/tiles, (ty+1)*h/tiles
				x0, x1 := tx*w/tiles, (tx+1)*w/tiles
				var src []float64
				var flatIdx []int
				for y := y0; y < y1; y++ {
					for xx := x0; xx < x1; xx++ {
						src = append(src, plane[y*w+xx])
						flatIdx = append(flatIdx, y*w+xx)
					}
				}
				dst := make([]float64, len(src))
				equalize(dst, src, 3)
				for i, fi := range flatIdx {
					oplane[fi] = dst[i]
				}
			}
		}
	}
	return out
}

var refGammas = []float64{2, 1.5, 0.5, 0, -1, math.NaN()}

// checkAgainstReference compares ImAdj, AdHist and Gamma at every G of
// refGammas with their reference implementations on x.
//
// One difference is allowed. Under sort.Float64s order -0 and +0 are equal,
// so when a channel holds both at the 1% rank the reference's unstable sort
// picked one arbitrarily; v-lo then differs only in the sign of a zero. Such
// pixels are compared with ==.
func checkAgainstReference(t *testing.T, x *tensor.T) {
	t.Helper()
	bothZeros := slices.ContainsFunc(x.Data, func(v float64) bool { return v == 0 && math.Signbit(v) }) &&
		slices.ContainsFunc(x.Data, func(v float64) bool { return v == 0 && !math.Signbit(v) })
	compare := func(name string, got, want *tensor.T, zeroSignFree bool) {
		t.Helper()
		for i := range want.Data {
			g, w := got.Data[i], want.Data[i]
			if math.Float64bits(g) == math.Float64bits(w) || (zeroSignFree && g == 0 && w == 0) {
				continue
			}
			t.Fatalf("%s on %v: pixel %d = %v (%#x), reference %v (%#x); input %v",
				name, x.Shape, i, g, math.Float64bits(g), w, math.Float64bits(w), x.Data[i])
		}
	}
	compare("ImAdj", ImAdj{}.Apply(x), refImAdj(x), bothZeros)
	compare("AdHist", AdHist{}.Apply(x), refAdHist(x), false)
	for _, g := range refGammas {
		p := Gamma{G: g}
		compare(p.Name(), p.Apply(x), refGamma(x, g), false)
	}
}

// refPlanes generates the pixel populations the reference test draws from.
var refPlanes = []struct {
	name string
	gen  func(rng *rand.Rand) float64
}{
	{"random", func(rng *rand.Rand) float64 { return rng.Float64() }},
	{"ties", func(rng *rand.Rand) float64 { return float64(rng.Intn(8)) / 7 }},
	// Values around 2^-511, whose squares straddle the subnormal boundary.
	{"tiny", func(rng *rand.Rand) float64 { return math.Ldexp(rng.Float64(), -505-rng.Intn(40)) }},
	{"out-of-range", func(rng *rand.Rand) float64 { return 6*rng.Float64() - 3 }},
	{"non-finite", func(rng *rand.Rand) float64 {
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1e300}
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.Float64()
	}},
	// About 5% zeros of either sign, so the 1% rank is a zero.
	{"signed-zeros", func(rng *rand.Rand) float64 {
		if rng.Intn(20) == 0 {
			return math.Copysign(0, float64(rng.Intn(2))-0.5)
		}
		return rng.Float64()
	}},
}

func TestFastPreprocessorsMatchReference(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {1, 1, 7}, {2, 3, 5}, {1, 9, 11}, // under 100 pixels: rank 0
		{1, 10, 10}, {3, 13, 17}, {3, 32, 32}, {3, 40, 40},
	}
	for _, pl := range refPlanes {
		t.Run(pl.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(pl.name))))
			for _, sh := range shapes {
				for trial := 0; trial < 25; trial++ {
					x := tensor.New(sh[0], sh[1], sh[2])
					for i := range x.Data {
						x.Data[i] = pl.gen(rng)
					}
					checkAgainstReference(t, x)
				}
			}
		})
	}
}

// selectRank must agree with sort.Float64s at every rank, also on the
// presorted and repetitive layouts that defeat naive pivots, and must leave
// the slice partitioned around k.
func TestSelectRankMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	layouts := []struct {
		name string
		f    func(i, n int) float64
	}{
		{"ascending", func(i, n int) float64 { return float64(i) }},
		{"descending", func(i, n int) float64 { return float64(n - i) }},
		{"organ-pipe", func(i, n int) float64 { return float64(min(i, n-1-i)) }},
		{"sawtooth", func(i, n int) float64 { return float64(i % 5) }},
		{"constant", func(i, n int) float64 { return 0.5 }},
		{"random", func(i, n int) float64 { return rng.NormFloat64() }},
		{"nan-heavy", func(i, n int) float64 {
			if i%3 == 0 {
				return math.NaN()
			}
			return float64(i % 7)
		}},
	}
	for _, l := range layouts {
		for _, n := range []int{1, 2, 13, 64, 257, 1000} {
			s := make([]float64, n)
			for i := range s {
				s[i] = l.f(i, n)
			}
			sorted := slices.Clone(s)
			sort.Float64s(sorted)
			for k := 0; k < n; k++ {
				work := slices.Clone(s)
				got := selectRank(work, k)
				if math.Float64bits(got) != math.Float64bits(sorted[k]) && !(math.IsNaN(got) && math.IsNaN(sorted[k])) {
					t.Fatalf("%s n=%d: selectRank(k=%d) = %v, sorted %v", l.name, n, k, got, sorted[k])
				}
				for i, v := range work {
					if (i < k && cmp.Less(got, v)) || (i > k && cmp.Less(v, got)) {
						t.Fatalf("%s n=%d k=%d: work[%d] = %v on the wrong side of %v", l.name, n, k, i, v, got)
					}
				}
			}
		}
	}
}
