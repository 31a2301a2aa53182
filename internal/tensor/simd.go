package tensor

import "sync/atomic"

// Architecture-independent surface of the SIMD acceleration layer: the
// runtime switch, and the dispatching wrappers the reduced-precision
// backends call. Each wrapper runs the assembly microkernel when available
// and falls back to the pure-Go reference otherwise; see simd_amd64.go for
// what is accelerated and which wrappers preserve bit-identity.

// simdOff is the runtime kill-switch, stored inverted so the zero value
// means "on". Tests toggle it via SetSIMD to cover both implementations.
var simdOff atomic.Bool

// SIMDAvailable reports whether this binary can use the vector kernels on
// this machine (amd64 with AVX2+FMA and OS vector-state support).
func SIMDAvailable() bool { return simdAvailable }

// SIMDEnabled reports whether the vector kernels are available AND not
// disabled via SetSIMD — i.e. whether dispatching wrappers will take the
// assembly route right now. Kernel selection heuristics (e.g. Winograd vs
// im2col+FMA in the f32 convolution) key off this.
func SIMDEnabled() bool { return useSIMD() }

// SetSIMD enables or disables the vector kernels at runtime and returns
// the previous effective state. Enabling on unsupported hardware is a
// no-op: the pure-Go kernels keep running.
func SetSIMD(on bool) bool {
	prev := simdAvailable && !simdOff.Load()
	simdOff.Store(!on)
	return prev
}

// GemmInto32Fast computes C = A×B like GemmInto32, dispatching to the FMA
// microkernel when available. Unlike GemmInto32 it does NOT guarantee
// bit-identical results to the naive i-k-j kernel: the 4×16 FMA blocks
// accumulate in a different association (fused, 16 lanes). It is the GEMM
// of the f32 backend's convolution path, where float32 rounding already
// bounds accuracy (DESIGN.md §9). Column j of C is bit-identical for every
// N > j: rows in full 4-row groups always take the FMA chain (the column
// remainder runs through a padded panel, see fmaColumnTail), and the last
// m mod 4 rows always take the scalar chain.
func GemmInto32Fast(c, a, b *T32) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || c.Shape[0] != m || c.Shape[1] != n {
		panic("tensor: GemmInto32Fast shape mismatch")
	}
	if !useSIMD() || k == 0 {
		GemmInto32(c, a, b)
		return
	}
	cd, ad, bd := c.Data, a.Data, b.Data
	mb, nb := m&^3, n&^15
	for j := 0; j < nb; j += 16 {
		for i := 0; i < mb; i += 4 {
			fmaGemm4x16(&ad[i*k], k, &bd[j], n, &cd[i*n+j], n, k)
		}
	}
	if mb > 0 && nb < n {
		fmaColumnTail(cd, ad, bd, mb, k, nb, n, n, n)
	}
	if mb < m {
		gemm32ScalarRegion(cd, ad, bd, mb, m, 0, n, k, n, n)
	}
}

// fmaColumnTail computes C[0:mb, j0:j1) — fewer than 16 columns, mb a
// multiple of 4 — with the 4×16 FMA microkernel over a zero-padded 16-wide
// copy of B[:, j0:j1), copying back only the valid columns. Every column
// of rows [0, mb) thus takes the same fused accumulation chain whether or
// not it lies in a full 16-column block, so a column's value does not
// depend on N (the batch size of a convolution GEMM). ldb/ldc are B's and
// C's row strides.
func fmaColumnTail(cd, ad, bd []float32, mb, k, j0, j1, ldb, ldc int) {
	w := j1 - j0
	pp := getBlk32(16*k + 4*16)
	panel, cblk := (*pp)[:16*k], (*pp)[16*k:]
	for p := 0; p < k; p++ {
		row := panel[p*16 : (p+1)*16]
		copy(row, bd[p*ldb+j0:p*ldb+j1])
		clear(row[w:])
	}
	for i := 0; i < mb; i += 4 {
		fmaGemm4x16(&ad[i*k], k, &panel[0], 16, &cblk[0], 16, k)
		for r := 0; r < 4; r++ {
			copy(cd[(i+r)*ldc+j0:(i+r)*ldc+j1], cblk[r*16:r*16+w])
		}
	}
	putBlk32(pp)
}

// gemm32ScalarRegion computes the C sub-block [i0,i1)×[j0,j1) with the
// scalar i-k-j kernel — the remainder path of GemmInto32Fast. ldc/ldb are
// C's and B's row strides (both n on the explicit path; the implicit conv
// path passes a generated block with ldb = block width).
func gemm32ScalarRegion(cd, ad, bd []float32, i0, i1, j0, j1, k, ldc, ldb int) {
	for i := i0; i < i1; i++ {
		crow := cd[i*ldc+j0 : i*ldc+j1]
		for x := range crow {
			crow[x] = 0
		}
		for p := 0; p < k; p++ {
			av := ad[i*k+p]
			brow := bd[p*ldb+j0 : p*ldb+j1]
			for x, bv := range brow {
				crow[x] += av * bv
			}
		}
	}
}

// DequantRow computes dst[i] = float32(c[i] − 128·cs[i] − corr)·scale +
// bias — the fused dequantize + bias epilogue of the int8 convolution and
// dense kernels (c holds biased GEMM accumulators, cs the matching column
// sums). Results are bit-identical between the vector and scalar paths.
func DequantRow(dst []float32, c, cs []int32, corr int32, scale, bias float32) {
	n := len(dst)
	i := 0
	if useSIMD() {
		if nb := n &^ 7; nb > 0 {
			dequantRowAVX(&dst[0], &c[0], &cs[0], nb, corr, scale, bias)
			i = nb
		}
	}
	for ; i < n; i++ {
		dst[i] = float32(c[i]-128*cs[i]-corr)*scale + bias
	}
}

// AddBiasRow computes dst[i] = src[i] + bias — the bias + transpose
// epilogue of the f32 convolution path. Bit-identical between paths.
func AddBiasRow(dst, src []float32, bias float32) {
	n := len(dst)
	i := 0
	if useSIMD() {
		if nb := n &^ 7; nb > 0 {
			addBiasRowAVX(&dst[0], &src[0], nb, bias)
			i = nb
		}
	}
	for ; i < n; i++ {
		dst[i] = src[i] + bias
	}
}
