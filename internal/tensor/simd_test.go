package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// withSIMD runs f under both implementations (when the hardware has the
// vector kernels) or just the scalar one (when it doesn't).
func withSIMD(t *testing.T, f func(t *testing.T, simd bool)) {
	t.Run("scalar", func(t *testing.T) {
		prev := SetSIMD(false)
		defer SetSIMD(prev)
		f(t, false)
	})
	if SIMDAvailable() {
		t.Run("simd", func(t *testing.T) {
			prev := SetSIMD(true)
			defer SetSIMD(prev)
			f(t, true)
		})
	}
}

// TestGemmU8IntoSIMDExact locks the cross-implementation contract: the
// vpmaddwd kernel and the scalar SWAR kernel produce identical int32
// matrices, including odd-k tails and column remainders.
func TestGemmU8IntoSIMDExact(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no vector kernels on this machine")
	}
	rng := rand.New(rand.NewSource(53))
	shapes := [][3]int{
		{1, 1, 1},
		{4, 8, 32},    // exact vector tiles, even k
		{8, 27, 96},   // odd k (zero-row tail), multiple blocks
		{3, 5, 39},    // odd k + column remainder
		{12, 72, 257}, // conv2-like with remainder
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := make([]uint8, m*k)
			b := make([]uint8, k*n)
			for i := range a {
				a[i] = uint8(rng.Intn(256))
			}
			for i := range b {
				b[i] = uint8(rng.Intn(256))
			}
			cScalar := make([]int32, m*n)
			csScalar := make([]int32, n)
			prev := SetSIMD(false)
			GemmU8Into(cScalar, csScalar, a, b, m, k, n)
			SetSIMD(true)
			cSIMD := make([]int32, m*n)
			csSIMD := make([]int32, n)
			GemmU8Into(cSIMD, csSIMD, a, b, m, k, n)
			SetSIMD(prev)
			for i := range cScalar {
				if cScalar[i] != cSIMD[i] {
					t.Fatalf("c[%d]: scalar %d vs simd %d", i, cScalar[i], cSIMD[i])
				}
			}
			for j := range csScalar {
				if csScalar[j] != csSIMD[j] {
					t.Fatalf("colsum[%d]: scalar %d vs simd %d", j, csScalar[j], csSIMD[j])
				}
			}
		})
	}
}

// TestQuantizeU8SIMDExact locks the quantizer's cross-implementation
// contract: identical bytes from the vector and scalar paths, including
// saturation, huge-value overflow, and NaN inputs.
func TestQuantizeU8SIMDExact(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no vector kernels on this machine")
	}
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 31, 32, 33, 100, 1024} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64() * 20)
		}
		if n >= 32 {
			src[0] = float32(math.NaN())
			src[1] = float32(math.Inf(1))
			src[2] = float32(math.Inf(-1))
			src[3] = 1e30
			src[4] = -1e30
			src[5] = 0
		}
		for _, zp := range []uint8{0, 13, 255} {
			want := make([]uint8, n)
			got := make([]uint8, n)
			prev := SetSIMD(false)
			QuantizeU8(want, src, 7.5, zp)
			SetSIMD(true)
			QuantizeU8(got, src, 7.5, zp)
			SetSIMD(prev)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("n=%d zp=%d src[%d]=%g: scalar %d vs simd %d", n, zp, i, src[i], want[i], got[i])
				}
			}
		}
	}
}

// TestGemmInto32FastMatchesReference checks the FMA GEMM against the exact
// f32 kernel within float32 accumulation tolerance, across tile and
// remainder shapes.
func TestGemmInto32FastMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	shapes := [][3]int{
		{4, 16, 16},
		{8, 27, 1024}, // conv1-like
		{7, 33, 45},   // row+column remainders
		{12, 72, 256},
		{10, 768, 32}, // dense-like
	}
	withSIMD(t, func(t *testing.T, _ bool) {
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			a := randT32(rng, m, k)
			b := randT32(rng, k, n)
			want := New32(m, n)
			GemmInto32(want, a, b)
			got := New32(m, n)
			GemmInto32Fast(got, a, b)
			for i := range want.Data {
				w, g := float64(want.Data[i]), float64(got.Data[i])
				tol := 1e-4 * (math.Abs(w) + 1) * math.Sqrt(float64(k))
				if math.Abs(g-w) > tol {
					t.Fatalf("%dx%dx%d element %d: fast %g vs reference %g", m, k, n, i, g, w)
				}
			}
		}
	})
}

// TestDequantRowBitIdentical checks the fused dequant epilogue produces the
// same float32 bits with and without the vector kernel (no FMA inside).
func TestDequantRowBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{1, 7, 8, 9, 64, 1000} {
		c := make([]int32, n)
		cs := make([]int32, n)
		for i := range c {
			c[i] = rng.Int31n(1 << 24)
			cs[i] = rng.Int31n(1 << 16)
		}
		const corr, scale, bias = 12345, 0.003, -1.25
		want := make([]float32, n)
		for i := range want {
			want[i] = float32(c[i]-128*cs[i]-corr)*scale + bias
		}
		withSIMD(t, func(t *testing.T, simd bool) {
			dst := make([]float32, n)
			DequantRow(dst, c, cs, corr, scale, bias)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("n=%d i=%d: got %g, want %g (bit-exact required)", n, i, dst[i], want[i])
				}
			}
		})
	}
}

// TestAddBiasRowBitIdentical does the same for the bias epilogue.
func TestAddBiasRowBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, n := range []int{1, 8, 13, 256} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		const bias = float32(0.7)
		want := make([]float32, n)
		for i := range want {
			want[i] = src[i] + bias
		}
		withSIMD(t, func(t *testing.T, simd bool) {
			dst := make([]float32, n)
			AddBiasRow(dst, src, bias)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("n=%d i=%d: got %g, want %g", n, i, dst[i], want[i])
				}
			}
		})
	}
}

// TestGemm32ColumnBatchInvariant locks the batch-invariance contract of the
// f32 convolution GEMMs: column j of GemmInto32Fast and ConvGemmIm2Col32
// is bit-identical for every N > j, under both SIMD settings. The N values
// straddle multiples of the 16-column FMA block and the implicitJW-column
// generation panel; row counts leave a scalar m mod 4 remainder. A convolution
// GEMM's N is bsz·OutH·OutW, so this is what makes an image's f32 logits
// independent of how many other images share its batch.
func TestGemm32ColumnBatchInvariant(t *testing.T) {
	withSIMD(t, func(t *testing.T, _ bool) {
		rng := rand.New(rand.NewSource(61))
		m, k := 10, 75
		widths := []int{1, 4, 15, 16, 17, 31, 33, 100, 255, 256, 257, 271, 300, 529}
		a := randT32(rng, m, k)
		full := randT32(rng, k, widths[len(widths)-1])
		nmax := full.Shape[1]
		ref := New32(m, nmax)
		GemmInto32Fast(ref, a, full)
		for _, n := range widths {
			b := New32(k, n)
			for p := 0; p < k; p++ {
				copy(b.Data[p*n:(p+1)*n], full.Data[p*nmax:p*nmax+n])
			}
			c := New32(m, n)
			GemmInto32Fast(c, a, b)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					if got, want := c.Data[i*n+j], ref.Data[i*nmax+j]; math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("GemmInto32Fast N=%d: C[%d][%d] = %v, N=%d gives %v", n, i, j, got, nmax, want)
					}
				}
			}
		}

		// lenet5's second conv (100 columns per image) and a 3×3 output
		// (9 per image): bsz sweeps N across 16-column and 256-column
		// boundaries; column j always belongs to the same (image, pixel).
		geoms := []struct {
			g    ConvGeom
			outC int
			bszs []int
		}{
			{ConvGeom{InC: 6, InH: 14, InW: 14, KH: 5, KW: 5, Stride: 1, Pad: 0}, 16, []int{1, 2, 3, 7}},
			{ConvGeom{InC: 4, InH: 3, InW: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}, 7, []int{1, 2, 3, 28, 29, 30, 57}},
		}
		for _, tc := range geoms {
			g := tc.g
			k := g.InC * g.KH * g.KW
			ohw := g.OutH() * g.OutW()
			chw := g.InC * g.InH * g.InW
			bmax := tc.bszs[len(tc.bszs)-1]
			weight := randT32(rng, tc.outC, k)
			src := randT32(rng, bmax, chw)
			nmax := bmax * ohw
			ref := New32(tc.outC, nmax)
			ConvGemmIm2Col32(ref, weight, src.Data, bmax, g)
			for _, bsz := range tc.bszs {
				n := bsz * ohw
				c := New32(tc.outC, n)
				ConvGemmIm2Col32(c, weight, src.Data[:bsz*chw], bsz, g)
				for i := 0; i < tc.outC; i++ {
					for j := 0; j < n; j++ {
						if got, want := c.Data[i*n+j], ref.Data[i*nmax+j]; math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("ConvGemmIm2Col32 %+v bsz=%d: C[%d][%d] = %v, bsz=%d gives %v", g, bsz, i, j, got, bmax, want)
						}
					}
				}
			}
		}
	})
}
