// Package preprocess implements the image preprocessors of PolygraphMR's
// Layer 1 (paper Table I): the transforms that synthesize behaviour
// diversity between the member CNNs. The paper used OpenCV/MATLAB; these are
// stdlib reimplementations of the same transforms operating on [C,H,W]
// tensors with values in [0,1].
//
// Every preprocessor clamps its output into [0,1] (NaN sanitizes to 0), so
// out-of-contract pixels — NaN, Inf, or out-of-range values — cannot
// propagate into the member networks. For in-contract inputs the clamp is a
// no-op. FuzzPreprocess locks this hardening down.
package preprocess

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/tensor"
)

// Preprocessor transforms an input image into the view a member CNN is
// trained on and fed with. Implementations must not modify the input and
// must return a tensor of the same shape.
type Preprocessor interface {
	// Name is a stable identifier, e.g. "FlipX" or "Gamma(2)". It is used
	// in system configurations and zoo cache keys.
	Name() string
	// Apply returns the transformed image.
	Apply(x *tensor.T) *tensor.T
}

// Identity passes in-range input through unchanged (modulo the package-wide
// [0,1] clamp); it represents the original (ORG) network in a PolygraphMR
// configuration.
type Identity struct{}

var _ Preprocessor = Identity{}

// Name implements Preprocessor.
func (Identity) Name() string { return "ORG" }

// Apply implements Preprocessor.
func (Identity) Apply(x *tensor.T) *tensor.T {
	out := tensor.New(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = clamp01(v)
	}
	return out
}

// FlipX mirrors the image across the vertical axis (left-right flip).
type FlipX struct{}

var _ Preprocessor = FlipX{}

// Name implements Preprocessor.
func (FlipX) Name() string { return "FlipX" }

// Apply implements Preprocessor.
func (FlipX) Apply(x *tensor.T) *tensor.T {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := tensor.New(c, h, w)
	for ci := 0; ci < c; ci++ {
		for y := 0; y < h; y++ {
			row := x.Data[ci*h*w+y*w : ci*h*w+(y+1)*w]
			orow := out.Data[ci*h*w+y*w : ci*h*w+(y+1)*w]
			for i := 0; i < w; i++ {
				orow[i] = clamp01(row[w-1-i])
			}
		}
	}
	return out
}

// FlipY mirrors the image across the horizontal axis (top-bottom flip).
type FlipY struct{}

var _ Preprocessor = FlipY{}

// Name implements Preprocessor.
func (FlipY) Name() string { return "FlipY" }

// Apply implements Preprocessor.
func (FlipY) Apply(x *tensor.T) *tensor.T {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := tensor.New(c, h, w)
	for ci := 0; ci < c; ci++ {
		for y := 0; y < h; y++ {
			src := x.Data[ci*h*w+(h-1-y)*w : ci*h*w+(h-y)*w]
			dst := out.Data[ci*h*w+y*w : ci*h*w+(y+1)*w]
			for i, v := range src {
				dst[i] = clamp01(v)
			}
		}
	}
	return out
}

// Gamma applies gamma correction v → v^G, controlling overall brightness.
type Gamma struct {
	G float64
}

var _ Preprocessor = Gamma{}

// Name implements Preprocessor.
func (g Gamma) Name() string { return fmt.Sprintf("Gamma(%g)", g.G) }

// Apply implements Preprocessor.
func (g Gamma) Apply(x *tensor.T) *tensor.T {
	out := tensor.New(x.Shape...)
	for i, v := range x.Data {
		c := clamp01(v)
		// Pow(c, 2) rounds its mantissa product once, exactly like c*c,
		// wherever the square is a normal float; only subnormal squares
		// (c < 2^-511) are rounded twice by Pow and so take the slow path.
		if sq := c * c; g.G == 2 && sq >= 0x1p-1022 {
			out.Data[i] = sq
			continue
		}
		// The outer clamp guards the G<=0 and G=NaN corners (Pow(0,-1)=+Inf).
		out.Data[i] = clamp01(math.Pow(c, g.G))
	}
	return out
}

// Hist performs global histogram equalization per channel, enhancing
// contrast by remapping intensities to a uniform distribution.
type Hist struct{}

var _ Preprocessor = Hist{}

// Name implements Preprocessor.
func (Hist) Name() string { return "Hist" }

const histBins = 64

// Apply implements Preprocessor.
func (Hist) Apply(x *tensor.T) *tensor.T {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := tensor.New(c, h, w)
	for ci := 0; ci < c; ci++ {
		plane := x.Data[ci*h*w : (ci+1)*h*w]
		oplane := out.Data[ci*h*w : (ci+1)*h*w]
		equalize(oplane, plane, 0)
	}
	return out
}

// equalize histogram-equalizes src into dst. clipLimit > 0 enables CLAHE
// style clipping: histogram counts above clipLimit×uniform are clipped and
// redistributed, bounding contrast amplification.
func equalize(dst, src []float64, clipLimit float64) {
	if len(src) == 0 {
		return
	}
	var hist [histBins]float64
	for _, v := range src {
		hist[binOf(v)]++
	}
	if clipLimit > 0 {
		limit := clipLimit * float64(len(src)) / histBins
		excess := 0.0
		for i := range hist {
			if hist[i] > limit {
				excess += hist[i] - limit
				hist[i] = limit
			}
		}
		share := excess / histBins
		for i := range hist {
			hist[i] += share
		}
	}
	// CDF lookup table.
	var cdf [histBins]float64
	sum := 0.0
	for i, c := range hist {
		sum += c
		cdf[i] = sum
	}
	total := cdf[histBins-1]
	for i, v := range src {
		dst[i] = cdf[binOf(v)] / total
	}
}

func binOf(v float64) int {
	b := int(clamp01(v) * (histBins - 1))
	if b < 0 {
		return 0
	}
	if b >= histBins {
		return histBins - 1
	}
	return b
}

// AdHist performs CLAHE-style adaptive histogram equalization: the image is
// tiled and each tile is equalized with a clip limit, locally adjusting
// intensities to enhance contrast.
type AdHist struct {
	// Tiles is the tile grid dimension (Tiles×Tiles); 0 means 4.
	Tiles int
}

var _ Preprocessor = AdHist{}

// Name implements Preprocessor.
func (AdHist) Name() string { return "AdHist" }

// Apply implements Preprocessor.
func (a AdHist) Apply(x *tensor.T) *tensor.T {
	tiles := a.Tiles
	if tiles <= 0 {
		tiles = 4
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := tensor.New(c, h, w)
	// No tile spans more than ceil(h/tiles) rows or ceil(w/tiles) columns,
	// so one buffer holds every tile's gathered source and its equalization.
	tileMax := ((h + tiles - 1) / tiles) * ((w + tiles - 1) / tiles)
	buf := make([]float64, 2*tileMax)
	for ci := 0; ci < c; ci++ {
		plane := x.Data[ci*h*w : (ci+1)*h*w]
		oplane := out.Data[ci*h*w : (ci+1)*h*w]
		for ty := 0; ty < tiles; ty++ {
			for tx := 0; tx < tiles; tx++ {
				y0, y1 := ty*h/tiles, (ty+1)*h/tiles
				x0, x1 := tx*w/tiles, (tx+1)*w/tiles
				src := buf[:0]
				for y := y0; y < y1; y++ {
					src = append(src, plane[y*w+x0:y*w+x1]...)
				}
				dst := buf[len(src) : 2*len(src)]
				equalize(dst, src, 3)
				for y := y0; y < y1; y++ {
					dst = dst[copy(oplane[y*w+x0:y*w+x1], dst):]
				}
			}
		}
	}
	return out
}

// ConNorm performs local contrast normalization: each pixel is standardized
// by the mean and standard deviation of its neighbourhood, then the result
// is affinely rescaled back into [0,1].
type ConNorm struct {
	// Radius of the square neighbourhood; 0 means 2 (a 5×5 window).
	Radius int
}

var _ Preprocessor = ConNorm{}

// Name implements Preprocessor.
func (ConNorm) Name() string { return "ConNorm" }

// Apply implements Preprocessor.
func (n ConNorm) Apply(x *tensor.T) *tensor.T {
	r := n.Radius
	if r <= 0 {
		r = 2
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := tensor.New(c, h, w)
	for ci := 0; ci < c; ci++ {
		plane := x.Data[ci*h*w : (ci+1)*h*w]
		oplane := out.Data[ci*h*w : (ci+1)*h*w]
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				var sum, sq float64
				cnt := 0
				for dy := -r; dy <= r; dy++ {
					for dx := -r; dx <= r; dx++ {
						ny, nx := y+dy, xx+dx
						if ny >= 0 && ny < h && nx >= 0 && nx < w {
							v := plane[ny*w+nx]
							sum += v
							sq += v * v
							cnt++
						}
					}
				}
				mean := sum / float64(cnt)
				variance := sq/float64(cnt) - mean*mean
				if variance < 0 {
					variance = 0
				}
				std := math.Sqrt(variance)
				z := (plane[y*w+xx] - mean) / (std + 0.05)
				// Map z≈[-3,3] into [0,1].
				oplane[y*w+xx] = clamp01(0.5 + z/6)
			}
		}
	}
	return out
}

// ImAdj maps image intensities so the [1%, 99%] percentile range stretches
// to [0,1] per channel — MATLAB's imadjust. The paper notes this transform
// modifies features heavily and is selected only rarely.
type ImAdj struct{}

var _ Preprocessor = ImAdj{}

// Name implements Preprocessor.
func (ImAdj) Name() string { return "ImAdj" }

// Apply implements Preprocessor. The percentiles are the values at ranks
// n/100 and n-1-n/100 of the channel sorted by sort.Float64s (NaNs first),
// found by selection rather than a full sort.
func (ImAdj) Apply(x *tensor.T) *tensor.T {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := tensor.New(c, h, w)
	scratch := make([]float64, h*w)
	for ci := 0; ci < c; ci++ {
		plane := x.Data[ci*h*w : (ci+1)*h*w]
		oplane := out.Data[ci*h*w : (ci+1)*h*w]
		copy(scratch, plane)
		k := len(scratch) / 100
		lo := selectRank(scratch, k)
		// selectRank left every value ranked above k in scratch[k+1:].
		hi := selectRank(scratch[k:], len(scratch)-1-2*k)
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

// selectRank permutes s so that s[k] holds the value sort.Float64s would
// put there — the same cmp.Less order, NaNs first — with nothing ordered
// after it in s[:k] and nothing ordered before it in s[k+1:], and returns
// s[k]. It is a quickselect with a three-way partition, so tie-heavy planes
// shrink fast; past a depth limit it sorts the remaining window, which
// bounds adversarial inputs at O(n log n).
func selectRank(s []float64, k int) float64 {
	lo, hi := 0, len(s)
	for depth := 2 * bits.Len(uint(len(s))); ; depth-- {
		if hi-lo <= 12 || depth == 0 {
			slices.Sort(s[lo:hi])
			return s[k]
		}
		p := pivot(s[lo:hi], k-lo)
		// Dijkstra partition of s[lo:hi]: [lo,lt) < p, [lt,i) == p, [gt,hi) > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := s[i]; {
			case cmp.Less(v, p):
				s[lt], s[i] = v, s[lt]
				lt++
				i++
			case cmp.Less(p, v):
				gt--
				s[gt], s[i] = v, s[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return s[k]
		}
	}
}

// pivot picks a partitioning value for selecting rank k of s: the value at
// k's quantile of an evenly spaced sorted sample, moved two sample ranks
// toward the middle. For the 1% and 99% ranks ImAdj asks for, one partition
// then leaves a window about a tenth the size that still holds k, and its
// comparisons mostly go the same way, which the branch predictor rewards.
func pivot(s []float64, k int) float64 {
	var sample [31]float64
	n := len(s)
	for i := range sample {
		sample[i] = s[(2*i+1)*n/(2*len(sample))]
	}
	slices.Sort(sample[:])
	r := k * len(sample) / n
	if k < n/2 {
		r = min(r+2, len(sample)-1)
	} else {
		r = max(r-2, 0)
	}
	return sample[r]
}

// Scale downsamples the image by factor P (e.g. 0.8) with bilinear sampling
// and upsamples it back, softening high-frequency detail and noise.
type Scale struct {
	P float64
}

var _ Preprocessor = Scale{}

// Name implements Preprocessor.
func (s Scale) Name() string { return fmt.Sprintf("Scale(%g)", s.P) }

// Apply implements Preprocessor.
func (s Scale) Apply(x *tensor.T) *tensor.T {
	p := s.P
	if p <= 0 || p > 1 {
		p = 0.8
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	sh, sw := maxInt(1, int(float64(h)*p)), maxInt(1, int(float64(w)*p))
	small := tensor.New(c, sh, sw)
	resizeBilinear(small, x)
	out := tensor.New(c, h, w)
	resizeBilinear(out, small)
	// Bilinear output is a convex combination of inputs, so the clamp is a
	// no-op for in-range images and only sanitizes out-of-contract pixels.
	for i, v := range out.Data {
		out.Data[i] = clamp01(v)
	}
	return out
}

// resizeBilinear resamples src into dst (both [C,H,W], same channel count).
func resizeBilinear(dst, src *tensor.T) {
	c := src.Shape[0]
	sh, sw := src.Shape[1], src.Shape[2]
	dh, dw := dst.Shape[1], dst.Shape[2]
	for ci := 0; ci < c; ci++ {
		sp := src.Data[ci*sh*sw : (ci+1)*sh*sw]
		dp := dst.Data[ci*dh*dw : (ci+1)*dh*dw]
		for y := 0; y < dh; y++ {
			fy := (float64(y) + 0.5) * float64(sh) / float64(dh)
			y0 := int(fy - 0.5)
			ty := fy - 0.5 - float64(y0)
			y1 := y0 + 1
			if y0 < 0 {
				y0, y1, ty = 0, 0, 0
			}
			if y1 >= sh {
				y1 = sh - 1
				if y0 >= sh {
					y0 = sh - 1
				}
			}
			for xx := 0; xx < dw; xx++ {
				fx := (float64(xx) + 0.5) * float64(sw) / float64(dw)
				x0 := int(fx - 0.5)
				tx := fx - 0.5 - float64(x0)
				x1 := x0 + 1
				if x0 < 0 {
					x0, x1, tx = 0, 0, 0
				}
				if x1 >= sw {
					x1 = sw - 1
					if x0 >= sw {
						x0 = sw - 1
					}
				}
				v := (1-ty)*((1-tx)*sp[y0*sw+x0]+tx*sp[y0*sw+x1]) +
					ty*((1-tx)*sp[y1*sw+x0]+tx*sp[y1*sw+x1])
				dp[y*dw+xx] = v
			}
		}
	}
}

// clamp01 clamps v into [0,1]. NaN (for which every comparison is false)
// falls through to 0, so sanitized pipelines never emit non-finite pixels
// (found by FuzzPreprocess).
func clamp01(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v >= 0 {
		return v
	}
	return 0
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
