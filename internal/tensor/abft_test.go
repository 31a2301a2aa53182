package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func flipBit64(x *float64, bit uint) { *x = math.Float64frombits(math.Float64bits(*x) ^ (1 << bit)) }
func flipBit32(x *float32, bit uint) { *x = math.Float32frombits(math.Float32bits(*x) ^ (1 << bit)) }

func fillNormal32(t *T32, rng *rand.Rand) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
}

// TestVerifyGemmCleanBitIdentical locks the epilogue contract of the f64
// verified GEMM: on a fault-free run the verified wrapper reports zero
// detections and its output is bit-identical to the unverified kernel,
// across the small, blocked and parallel dispatch paths.
func TestVerifyGemmCleanBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][3]int{
		{1, 1, 1},
		{3, 5, 7},
		{16, 32, 64},
		{8, 27, 2048},
		{32, 2*gemmKC + 1, gemmNC + 3}, // blocked path with remainders
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := New(m, k)
			a.FillNormal(rng, 0, 1)
			b := New(k, n)
			b.FillNormal(rng, 0, 1)
			want := New(m, n)
			GemmInto(want, a, b)
			got := New(m, n)
			o := GemmIntoVerified(got, a, b)
			if o.Checks != n || o.Detected != 0 {
				t.Fatalf("clean run: outcome %+v, want %d checks and 0 detections", o, n)
			}
			for i, v := range got.Data {
				if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
					t.Fatalf("element %d: verified %v != unverified %v", i, v, want.Data[i])
				}
			}
		})
	}
}

// TestVerifyGemm32CleanBitIdentical is the f32 clean-run contract, covering
// both the FMA microkernel and the scalar fallback.
func TestVerifyGemm32CleanBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, simd := range []bool{false, true} {
		prev := SetSIMD(simd)
		for _, s := range [][3]int{{3, 5, 7}, {16, 48, 96}, {65, 33, 130}} {
			m, k, n := s[0], s[1], s[2]
			a := New32(m, k)
			fillNormal32(a, rng)
			b := New32(k, n)
			fillNormal32(b, rng)
			want := New32(m, n)
			GemmInto32Fast(want, a, b)
			got := New32(m, n)
			o := GemmInto32FastVerified(got, a, b)
			if o.Checks != n || o.Detected != 0 {
				t.Fatalf("simd=%v %v: outcome %+v, want %d checks and 0 detections", simd, s, o, n)
			}
			for i, v := range got.Data {
				if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
					t.Fatalf("simd=%v %v element %d: verified %v != unverified %v", simd, s, i, v, want.Data[i])
				}
			}
		}
		SetSIMD(prev)
	}
}

// TestVerifyGemmU8Clean locks the exact-checksum contract of the int8
// verified GEMM on clean runs, under both the vector and SWAR kernels.
func TestVerifyGemmU8Clean(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, simd := range []bool{false, true} {
		prev := SetSIMD(simd)
		m, k, n := 9, 33, 70
		a := make([]uint8, m*k)
		b := make([]uint8, k*n)
		for i := range a {
			a[i] = uint8(rng.Intn(256))
		}
		for i := range b {
			b[i] = uint8(rng.Intn(256))
		}
		want := make([]int32, m*n)
		wantCS := make([]int32, n)
		GemmU8Into(want, wantCS, a, b, m, k, n)
		got := make([]int32, m*n)
		gotCS := make([]int32, n)
		o := GemmU8IntoVerified(got, gotCS, a, b, m, k, n)
		if o.Checks != n || o.Detected != 0 {
			t.Fatalf("simd=%v: outcome %+v, want %d checks and 0 detections", simd, o, n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("simd=%v acc[%d]: %d != %d", simd, i, got[i], want[i])
			}
		}
		for j := range wantCS {
			if gotCS[j] != wantCS[j] {
				t.Fatalf("simd=%v colsum[%d]: %d != %d", simd, j, gotCS[j], wantCS[j])
			}
		}
		SetSIMD(prev)
	}
}

// TestVerifyGemmDetectsAndCorrects flips representative high-order bits in
// the f64 output and checks each is detected, repaired, and restored to the
// exact clean value (the repair chain reproduces the kernel's accumulation
// order).
func TestVerifyGemmDetectsAndCorrects(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m, k, n := 16, 32, 48
	a := New(m, k)
	a.FillNormal(rng, 0, 1)
	b := New(k, n)
	b.FillNormal(rng, 0, 1)
	clean := New(m, n)
	GemmInto(clean, a, b)
	for _, bit := range []uint{63, 62, 55, 51} {
		c := clean.Clone()
		idx := rng.Intn(m * n)
		flipBit64(&c.Data[idx], bit)
		o := VerifyGemm(c, a, b)
		if o.Detected != 1 || o.Corrected != 1 || !o.OK() {
			t.Fatalf("bit %d at %d: outcome %+v, want exactly one corrected detection", bit, idx, o)
		}
		for i, v := range c.Data {
			if math.Float64bits(v) != math.Float64bits(clean.Data[i]) {
				t.Fatalf("bit %d: repaired element %d = %v, want clean %v", bit, i, v, clean.Data[i])
			}
		}
	}
}

// TestVerifyGemm32DetectsAndCorrects is the f32 flip coverage. Under the
// FMA kernel the repaired column is re-executed with the scalar chain, so
// repaired values are checked against a fresh verification pass and a
// loose numeric agreement instead of bit equality.
func TestVerifyGemm32DetectsAndCorrects(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, simd := range []bool{false, true} {
		prev := SetSIMD(simd)
		m, k, n := 16, 32, 48
		a := New32(m, k)
		fillNormal32(a, rng)
		b := New32(k, n)
		fillNormal32(b, rng)
		clean := New32(m, n)
		GemmInto32Fast(clean, a, b)
		for _, bit := range []uint{31, 30, 25, 22} {
			c := &T32{Shape: []int{m, n}, Data: append([]float32(nil), clean.Data...)}
			idx := rng.Intn(m * n)
			flipBit32(&c.Data[idx], bit)
			o := VerifyGemm32(c, a, b)
			if o.Detected != 1 || o.Corrected != 1 || !o.OK() {
				t.Fatalf("simd=%v bit %d at %d: outcome %+v, want one corrected detection", simd, bit, idx, o)
			}
			if o2 := VerifyGemm32(c, a, b); o2.Detected != 0 {
				t.Fatalf("simd=%v bit %d: repaired output re-detects: %+v", simd, bit, o2)
			}
			for i, v := range c.Data {
				ref := float64(clean.Data[i])
				if d := math.Abs(float64(v) - ref); d > 1e-4*(1+math.Abs(ref)) {
					t.Fatalf("simd=%v bit %d: repaired element %d = %v too far from clean %v", simd, bit, i, v, ref)
				}
			}
		}
		SetSIMD(prev)
	}
}

// TestVerifyGemmU8DetectsAndCorrects covers both fault surfaces of the int8
// kernel — the int32 accumulators and the column sums — and requires exact
// restoration (the integer kernel is deterministic).
func TestVerifyGemmU8DetectsAndCorrects(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	m, k, n := 8, 50, 40
	a := make([]uint8, m*k)
	b := make([]uint8, k*n)
	for i := range a {
		a[i] = uint8(rng.Intn(256))
	}
	for i := range b {
		b[i] = uint8(rng.Intn(256))
	}
	clean := make([]int32, m*n)
	cleanCS := make([]int32, n)
	GemmU8Into(clean, cleanCS, a, b, m, k, n)

	for _, bit := range []uint{0, 7, 19, 30} {
		c := append([]int32(nil), clean...)
		cs := append([]int32(nil), cleanCS...)
		c[rng.Intn(m*n)] ^= 1 << bit
		cs[rng.Intn(n)] ^= 1 << bit
		o := VerifyGemmU8(c, cs, a, b, m, k, n)
		if o.Detected == 0 || !o.OK() {
			t.Fatalf("bit %d: outcome %+v, want detection and full correction", bit, o)
		}
		for i := range clean {
			if c[i] != clean[i] {
				t.Fatalf("bit %d: acc[%d] = %d, want %d", bit, i, c[i], clean[i])
			}
		}
		for j := range cleanCS {
			if cs[j] != cleanCS[j] {
				t.Fatalf("bit %d: colsum[%d] = %d, want %d", bit, j, cs[j], cleanCS[j])
			}
		}
	}
}

// TestVerifyMatMulTransB covers the row-checksum check of the batched
// Dense kernels (f64 and f32): clean bit-identity, then detection and
// bit-exact repair (the repair path re-runs the same matMulTransB row).
func TestVerifyMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	m, k, n := 7, 64, 10 // B=7 images, In=64, Out=10

	a := New(m, k)
	a.FillNormal(rng, 0, 1)
	b := New(n, k)
	b.FillNormal(rng, 0, 1)
	clean := New(m, n)
	MatMulTransBInto(clean, a, b)
	c := clean.Clone()
	if o := MatMulTransBIntoVerified(c, a, b); o.Checks != m || o.Detected != 0 {
		t.Fatalf("clean f64 run: outcome %+v", o)
	}
	for i := range c.Data {
		if math.Float64bits(c.Data[i]) != math.Float64bits(clean.Data[i]) {
			t.Fatalf("clean f64 run diverged at %d", i)
		}
	}
	flipBit64(&c.Data[13], 61)
	if o := VerifyMatMulTransB(c, a, b); o.Detected != 1 || o.Corrected != 1 {
		t.Fatalf("f64 flip: outcome %+v", o)
	}
	for i := range c.Data {
		if math.Float64bits(c.Data[i]) != math.Float64bits(clean.Data[i]) {
			t.Fatalf("f64 repair: element %d = %v, want %v", i, c.Data[i], clean.Data[i])
		}
	}

	a32 := New32(m, k)
	fillNormal32(a32, rng)
	b32 := New32(n, k)
	fillNormal32(b32, rng)
	clean32 := New32(m, n)
	MatMulTransBInto32(clean32, a32, b32)
	c32 := &T32{Shape: []int{m, n}, Data: append([]float32(nil), clean32.Data...)}
	if o := MatMulTransBInto32Verified(c32, a32, b32); o.Checks != m || o.Detected != 0 {
		t.Fatalf("clean f32 run: outcome %+v", o)
	}
	flipBit32(&c32.Data[31], 29)
	if o := VerifyMatMulTransB32(c32, a32, b32); o.Detected != 1 || o.Corrected != 1 {
		t.Fatalf("f32 flip: outcome %+v", o)
	}
	for i := range c32.Data {
		if math.Float32bits(c32.Data[i]) != math.Float32bits(clean32.Data[i]) {
			t.Fatalf("f32 repair: element %d = %v, want %v", i, c32.Data[i], clean32.Data[i])
		}
	}
}

// TestVerifyWinogradConv covers the transform-path check: a clean Winograd
// output passes untouched (no false positive from the transforms' larger
// rounding), and a high-order flip is detected and repaired, bit-exact, by
// re-running the Winograd pipeline on the faulty plane.
func TestVerifyWinogradConv(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if !WinogradEligible(g) {
		t.Fatal("test geometry must be Winograd-eligible")
	}
	bsz, outC := 4, 5
	hw := g.InH * g.InW

	src := New(bsz, g.InC*hw)
	src.FillNormal(rng, 0, 1)
	w := New(outC, g.InC*9)
	w.FillNormal(rng, 0, 0.5)
	bias := make([]float64, outC)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	a := NewArena()
	dst := New(bsz, outC*hw)
	WinogradConv3x3(dst, src, bsz, outC, w, bias, g, a)
	clean := dst.Clone()

	if o := VerifyWinogradConv(dst, src, bsz, outC, w, bias, g); o.Checks != bsz*outC || o.Detected != 0 {
		t.Fatalf("clean run: outcome %+v", o)
	}
	for i := range dst.Data {
		if math.Float64bits(dst.Data[i]) != math.Float64bits(clean.Data[i]) {
			t.Fatalf("clean verification mutated element %d", i)
		}
	}

	flipBit64(&dst.Data[3*outC*hw/2], 62)
	o := VerifyWinogradConv(dst, src, bsz, outC, w, bias, g)
	if o.Detected != 1 || o.Corrected != 1 {
		t.Fatalf("flip: outcome %+v, want one corrected detection", o)
	}
	for i := range dst.Data {
		if math.Float64bits(dst.Data[i]) != math.Float64bits(clean.Data[i]) {
			t.Fatalf("repaired element %d = %v, clean %v", i, dst.Data[i], clean.Data[i])
		}
	}

	// f32 variant.
	src32 := To32(src)
	w32 := To32(w)
	bias32 := make([]float32, outC)
	for i, v := range bias {
		bias32[i] = float32(v)
	}
	a32 := NewArena32()
	dst32 := New32(bsz, outC*hw)
	WinogradConv3x3F32(dst32, src32, bsz, outC, w32, bias32, g, a32)
	clean32 := append([]float32(nil), dst32.Data...)
	if o := VerifyWinogradConv32(dst32, src32, bsz, outC, w32, bias32, g); o.Detected != 0 {
		t.Fatalf("clean f32 run: outcome %+v", o)
	}
	flipBit32(&dst32.Data[7], 30)
	if o := VerifyWinogradConv32(dst32, src32, bsz, outC, w32, bias32, g); o.Detected != 1 || o.Corrected != 1 {
		t.Fatalf("f32 flip: outcome %+v", o)
	}
	for i := range dst32.Data {
		if math.Float32bits(dst32.Data[i]) != math.Float32bits(clean32[i]) {
			t.Fatalf("f32 repaired element %d = %v, clean %v", i, dst32.Data[i], clean32[i])
		}
	}
}

// TestVerifyUncorrectable models a fault that persists across re-execution
// (corrupted operand memory) via the retry hook: the mismatch must survive
// every bounded retry and be reported uncorrectable.
func TestVerifyUncorrectable(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	m, k, n := 8, 16, 12
	a := New(m, k)
	a.FillNormal(rng, 0, 1)
	b := New(k, n)
	b.FillNormal(rng, 0, 1)
	c := New(m, n)
	GemmInto(c, a, b)
	flipBit64(&c.Data[0], 62)

	// The checksum was predicted from the clean A; corrupting A now makes
	// every re-execution reproduce a product inconsistent with it.
	SetAbftRetryHook(func(int) { a.Data[0] = 1e30 })
	defer SetAbftRetryHook(nil)

	o := VerifyGemm(c, a, b)
	if o.Detected != 1 || o.Uncorrectable != 1 || o.OK() {
		t.Fatalf("outcome %+v, want one uncorrectable detection", o)
	}
}

// TestAbftStats checks the atomic sink arithmetic and its nil-safety.
func TestAbftStats(t *testing.T) {
	var s *AbftStats
	s.Record(VerifyOutcome{Checks: 5, Detected: 1}) // nil sink: no-op
	if c := s.Counts(); c != (AbftCounts{}) {
		t.Fatalf("nil stats counts %+v", c)
	}
	s = &AbftStats{}
	s.Record(VerifyOutcome{Checks: 5})
	s.Record(VerifyOutcome{Checks: 3, Detected: 2, Corrected: 1, Uncorrectable: 1})
	got := s.Counts()
	want := AbftCounts{Checks: 8, Detected: 2, Corrected: 1, Uncorrectable: 1}
	if got != want {
		t.Fatalf("counts %+v, want %+v", got, want)
	}
}

// TestAbftZeroFalsePositivesCleanGemms runs 500 clean randomized GEMMs
// through the verified kernels — f64, f32 (both SIMD states) and int8,
// across random shapes and scale regimes spanning denormal to huge — and
// requires zero detections: the tolerance derivation must never flag a
// fault-free product.
func TestAbftZeroFalsePositivesCleanGemms(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	prev := SetSIMD(true)
	defer SetSIMD(prev)
	scales := []float64{1, 1e-3, 1e3, 1e-20, 1e20, 1e-300, 1e300, 5e-324, 1e-40}
	for run := 0; run < 500; run++ {
		m := rng.Intn(24) + 1
		k := rng.Intn(48) + 1
		n := rng.Intn(24) + 1
		scale := scales[rng.Intn(len(scales))]
		SetSIMD(run%2 == 0)
		switch run % 4 {
		case 0: // f64 GEMM
			a := New(m, k)
			a.FillNormal(rng, 0, scale)
			b := New(k, n)
			b.FillNormal(rng, 0, scale)
			c := New(m, n)
			if o := GemmIntoVerified(c, a, b); o.Detected != 0 {
				t.Fatalf("run %d f64 %dx%dx%d scale %g: false positive %+v", run, m, k, n, scale, o)
			}
		case 1: // f32 GEMM
			a := New32(m, k)
			b := New32(k, n)
			for i := range a.Data {
				a.Data[i] = float32(rng.NormFloat64() * scale)
			}
			for i := range b.Data {
				b.Data[i] = float32(rng.NormFloat64() * scale)
			}
			c := New32(m, n)
			if o := GemmInto32FastVerified(c, a, b); o.Detected != 0 {
				t.Fatalf("run %d f32 %dx%dx%d scale %g: false positive %+v", run, m, k, n, scale, o)
			}
		case 2: // f64 transposed-B (batched Dense shape)
			a := New(m, k)
			a.FillNormal(rng, 0, scale)
			b := New(n, k)
			b.FillNormal(rng, 0, scale)
			c := New(m, n)
			if o := MatMulTransBIntoVerified(c, a, b); o.Detected != 0 {
				t.Fatalf("run %d transB %dx%dx%d scale %g: false positive %+v", run, m, k, n, scale, o)
			}
		case 3: // int8
			a := make([]uint8, m*k)
			b := make([]uint8, k*n)
			for i := range a {
				a[i] = uint8(rng.Intn(256))
			}
			for i := range b {
				b[i] = uint8(rng.Intn(256))
			}
			c := make([]int32, m*n)
			cs := make([]int32, n)
			if o := GemmU8IntoVerified(c, cs, a, b, m, k, n); o.Detected != 0 {
				t.Fatalf("run %d u8 %dx%dx%d: false positive %+v", run, m, k, n, o)
			}
		}
	}
}

// FuzzChecksumVerify throws hostile matrices — NaN, ±Inf, denormals and
// huge magnitudes reachable through raw bit patterns — at every verified
// kernel and checks the sanitization contract: no panic, and no false
// mismatch on a fault-free product (non-finite checksums make a column
// unverifiable, never "detected").
func FuzzChecksumVerify(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(5), []byte("polygraph abft"))
	f.Add(uint8(1), uint8(1), uint8(1), []byte{})
	hostile := make([]byte, 0, 6*8)
	for _, bits := range []uint64{
		math.Float64bits(math.NaN()),
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		math.Float64bits(1e308),
		math.Float64bits(-1e308),
		math.Float64bits(5e-324),
	} {
		hostile = binary.LittleEndian.AppendUint64(hostile, bits)
	}
	f.Add(uint8(4), uint8(6), uint8(4), hostile)

	f.Fuzz(func(t *testing.T, mr, kr, nr uint8, raw []byte) {
		m := int(mr)%6 + 1
		k := int(kr)%8 + 1
		n := int(nr)%6 + 1
		fill := func(d []float64, off int) {
			for i := range d {
				j := off + i
				if (j+1)*8 <= len(raw) {
					d[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[j*8:]))
				} else if j < len(raw) {
					d[i] = (float64(raw[j]) - 128) / 32
				}
			}
		}
		a := New(m, k)
		fill(a.Data, 0)
		b := New(k, n)
		fill(b.Data, m*k)
		c := New(m, n)
		if o := GemmIntoVerified(c, a, b); o.Detected != 0 {
			t.Fatalf("f64 GEMM false mismatch: %+v", o)
		}

		a32 := To32(a)
		b32 := To32(b)
		c32 := New32(m, n)
		if o := GemmInto32FastVerified(c32, a32, b32); o.Detected != 0 {
			t.Fatalf("f32 GEMM false mismatch: %+v", o)
		}

		bt := New(n, k)
		fill(bt.Data, m*k+k*n)
		ct := New(m, n)
		if o := MatMulTransBIntoVerified(ct, a, bt); o.Detected != 0 {
			t.Fatalf("f64 transB false mismatch: %+v", o)
		}

		ua := make([]uint8, m*k)
		ub := make([]uint8, k*n)
		for i := range ua {
			if i < len(raw) {
				ua[i] = raw[i]
			}
		}
		for i := range ub {
			if i+len(ua) < len(raw) {
				ub[i] = raw[i+len(ua)]
			}
		}
		uc := make([]int32, m*n)
		ucs := make([]int32, n)
		if o := GemmU8IntoVerified(uc, ucs, ua, ub, m, k, n); o.Detected != 0 {
			t.Fatalf("u8 false mismatch: %+v", o)
		}
	})
}
