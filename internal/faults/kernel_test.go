package faults

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func testImages(n int) []*tensor.T {
	rng := rand.New(rand.NewSource(9))
	xs := make([]*tensor.T, n)
	for i := range xs {
		x := tensor.New(1, 8, 8)
		x.FillNormal(rng, 0.5, 0.2)
		xs[i] = x
	}
	return xs
}

// rowsClose compares probability rows treating NaN==NaN as equal (weight
// faults can legitimately drive both execution paths to NaN).
func rowsClose(t *testing.T, a, b []float64, tol float64, ctx string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: row length %d vs %d", ctx, len(a), len(b))
	}
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if d := math.Abs(a[i] - b[i]); !(d <= tol) {
			t.Fatalf("%s: element %d: %v vs %v (|Δ|=%v > %v)", ctx, i, a[i], b[i], d, tol)
		}
	}
}

// TestKernelInjectionCoverageF64 runs a live-buffer bit-flip campaign
// against the float64 path, one image per call: every verified kernel call
// suffers one high-order mantissa/exponent flip, and the checksum epilogues must
// detect nearly all of them, correct every detection, and — when nothing
// slipped through — restore the exact fault-free probabilities (the f64
// repair chains are bit-identical to the clean kernels).
func TestKernelInjectionCoverageF64(t *testing.T) {
	net := testNet(t)
	xs := testImages(60)

	a := tensor.NewArena()
	clean := make([][]float64, len(xs))
	for i, x := range xs {
		clean[i] = append([]float64(nil), net.InferBatchArena([]*tensor.T{x}, a)[0].Data...)
		a.Reset()
	}

	ki := NewKernelInjector(41, 1)
	ki.Install()
	defer ki.Remove()
	st := &tensor.AbftStats{}
	a.SetAbft(st)
	faulty := make([][]float64, len(xs))
	for i, x := range xs {
		faulty[i] = append([]float64(nil), net.InferBatchArena([]*tensor.T{x}, a)[0].Data...)
		a.Reset()
	}
	ki.Remove()

	c := st.Counts()
	inj := uint64(ki.Injected())
	if inj < 100 {
		t.Fatalf("campaign too small: %d flips", inj)
	}
	if c.Uncorrectable != 0 {
		t.Fatalf("transient flips must be correctable: %+v", c)
	}
	if c.Corrected != c.Detected {
		t.Fatalf("detected %d but corrected %d", c.Detected, c.Corrected)
	}
	if rate := float64(c.Detected) / float64(inj); rate < 0.95 {
		t.Fatalf("f64 detection rate %.3f < 0.95 (%d/%d)", rate, c.Detected, inj)
	}
	if c.Detected == inj {
		for i := range xs {
			rowsClose(t, faulty[i], clean[i], 0, "f64 corrected run")
		}
	}
}

// TestKernelInjectionCoverageBatched drives the same campaign through
// InferBatchArena — the fused minibatch kernels (batched GEMM + Winograd),
// with many images per kernel call. Every repair path, the Winograd one
// included, re-executes the clean kernel's arithmetic, so corrected outputs
// match the clean batched run bit for bit.
func TestKernelInjectionCoverageBatched(t *testing.T) {
	net := testNet(t)
	xs := testImages(48)

	a := tensor.NewArena()
	probs := net.InferBatchArena(xs, a)
	clean := make([][]float64, len(xs))
	for i, p := range probs {
		clean[i] = append([]float64(nil), p.Data...)
	}
	a.Reset()

	ki := NewKernelInjector(43, 1)
	ki.Install()
	defer ki.Remove()
	st := &tensor.AbftStats{}
	a.SetAbft(st)
	// One fused call per layer per batch: loop rounds for statistics.
	var faulty [][][]float64
	for round := 0; round < 40; round++ {
		probs = net.InferBatchArena(xs, a)
		rows := make([][]float64, len(xs))
		for i, p := range probs {
			rows[i] = append([]float64(nil), p.Data...)
		}
		faulty = append(faulty, rows)
		a.Reset()
	}
	ki.Remove()

	c := st.Counts()
	inj := uint64(ki.Injected())
	if inj < 40 {
		t.Fatalf("campaign too small: %d flips", inj)
	}
	if c.Uncorrectable != 0 || c.Corrected != c.Detected {
		t.Fatalf("batched campaign outcome: %+v", c)
	}
	if rate := float64(c.Detected) / float64(inj); rate < 0.95 {
		t.Fatalf("batched f64 detection rate %.3f < 0.95 (%d/%d)", rate, c.Detected, inj)
	}
	if c.Detected == inj {
		for _, rows := range faulty {
			for i := range xs {
				rowsClose(t, rows[i], clean[i], 0, "batched corrected run")
			}
		}
	}
}

// TestKernelInjectionCoverageF32 covers the float32 backend under both
// SIMD settings (FMA GEMM microkernel vs. Winograd/scalar kernels pick
// different verify epilogues).
func TestKernelInjectionCoverageF32(t *testing.T) {
	net := testNet(t)
	n32, err := net.Compile32()
	if err != nil {
		t.Fatal(err)
	}
	xs := testImages(60)
	defer tensor.SetSIMD(true)

	for _, simd := range []bool{true, false} {
		tensor.SetSIMD(simd)
		a := tensor.NewArena32()
		clean := n32.InferBatch(xs, a)
		a.Reset()

		ki := NewKernelInjector(47, 1)
		ki.Install()
		st := &tensor.AbftStats{}
		a.SetAbft(st)
		var faulty [][][]float64
		for round := 0; round < 40; round++ {
			rows := n32.InferBatch(xs, a)
			faulty = append(faulty, rows)
			a.Reset()
		}
		ki.Remove()

		c := st.Counts()
		inj := uint64(ki.Injected())
		if inj < 40 {
			t.Fatalf("simd=%v: campaign too small: %d flips", simd, inj)
		}
		if c.Uncorrectable != 0 || c.Corrected != c.Detected {
			t.Fatalf("simd=%v: campaign outcome %+v", simd, c)
		}
		if rate := float64(c.Detected) / float64(inj); rate < 0.90 {
			t.Fatalf("simd=%v: f32 detection rate %.3f < 0.90 (%d/%d)", simd, rate, c.Detected, inj)
		}
		if c.Detected == inj {
			// f32 repairs re-execute scalar reference chains, so corrected
			// probabilities agree with the clean run within float32 noise.
			for _, rows := range faulty {
				for i := range xs {
					rowsClose(t, rows[i], clean[i], 1e-4, "f32 corrected run")
				}
			}
		}
	}
}

// TestKernelInjectionCoverageInt8 covers the int8 backend: the int32
// checksum is exact, so EVERY flip — any bit of any accumulator or column
// sum — must be detected, and the repaired batch must reproduce the clean
// output bit for bit.
func TestKernelInjectionCoverageInt8(t *testing.T) {
	net := testNet(t)
	calib := testImages(8)
	n8, err := net.CompileInt8(calib)
	if err != nil {
		t.Fatal(err)
	}
	xs := testImages(8)

	a := tensor.NewArena32()
	clean := n8.InferBatch(xs, a)
	a.Reset()

	ki := NewKernelInjector(53, 1)
	ki.Install()
	defer ki.Remove()
	st := &tensor.AbftStats{}
	a.SetAbft(st)
	// The fused int8 kernels run once per layer per batch, so a single
	// batch only offers two injection sites; loop rounds to build a
	// campaign with real statistics.
	for round := 0; round < 60; round++ {
		faulty := n8.InferBatch(xs, a)
		for i := range xs {
			rowsClose(t, faulty[i], clean[i], 0, "int8 corrected run")
		}
		a.Reset()
	}
	ki.Remove()

	c := st.Counts()
	inj := uint64(ki.Injected())
	if inj < 100 {
		t.Fatalf("campaign too small: %d flips", inj)
	}
	if c.Detected != inj {
		t.Fatalf("int8 must detect every flip: %d/%d", c.Detected, inj)
	}
	if c.Uncorrectable != 0 || c.Corrected != c.Detected {
		t.Fatalf("campaign outcome: %+v", c)
	}
}

// TestCampaignBatchedMatchesSequential pins the batch-invariance contract
// under weight faults: a network corrupted by any of the fault models must
// produce the same probabilities, bit for bit, for a batch of 7 as for each
// image run one at a time through InferBatchArena.
func TestCampaignBatchedMatchesSequential(t *testing.T) {
	xs := testImages(7)
	for _, model := range []Model{BitFlip, StuckAtZero, SignFlip} {
		t.Run(model.String(), func(t *testing.T) {
			net := testNet(t)
			in := NewInjector(net, 17)
			if _, err := in.Inject(model, 6); err != nil {
				t.Fatal(err)
			}
			defer in.Revert()

			a := tensor.NewArena()
			seq := make([][]float64, len(xs))
			for i, x := range xs {
				seq[i] = append([]float64(nil), net.InferBatchArena([]*tensor.T{x}, a)[0].Data...)
				a.Reset()
			}
			probs := net.InferBatchArena(xs, a)
			for i, p := range probs {
				rowsClose(t, p.Data, seq[i], 0, "batch of 7 vs batch of one")
			}
			a.Reset()
		})
	}
}
