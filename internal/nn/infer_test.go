package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// arenaTestNet covers every built-in layer's fused batch kernel: conv,
// channel norm, relus, residual block, dense unit, both poolings, dropout,
// flatten, dense.
func arenaTestNet(rng *rand.Rand) *Network {
	return MustNetwork([]int{3, 8, 8}, 5,
		NewConv2D(3, 4, 3, 1, 1, rng),
		NewChannelNorm(4),
		NewReLU(),
		NewResidualBlock(4, 4, 1, rng),
		NewDenseUnit(4, 2, rng),
		NewMaxPool2D(2),
		NewLeakyReLU(0.1),
		NewDropout(0.3, 7),
		NewGlobalAvgPool(),
		NewFlatten(),
		NewDense(6, 5, rng),
	)
}

func randomImages(rng *rand.Rand, n int) []*tensor.T {
	xs := make([]*tensor.T, n)
	for i := range xs {
		xs[i] = tensor.New(3, 8, 8)
		for j := range xs[i].Data {
			xs[i].Data[j] = rng.NormFloat64()
		}
	}
	return xs
}

// TestInferBatchArenaEveryLayerMatchesInfer runs every built-in layer
// through the fused batch path: each image of a batch agrees with the
// training-time Infer on the argmax and within 1e-9 per probability, is
// bit-identical to the same image run as a batch of one, and the arena
// recycles cleanly between calls.
func TestInferBatchArenaEveryLayerMatchesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := arenaTestNet(rng)
	xs := randomImages(rng, 20)
	a := tensor.NewArena()
	batch := net.InferBatchArena(xs, a)
	got := make([]*tensor.T, len(batch))
	for i, p := range batch {
		got[i] = p.Clone()
	}
	a.Reset()
	for i, x := range xs {
		want := net.Infer(x)
		wi, _ := want.MaxIndex()
		if gi, _ := got[i].MaxIndex(); gi != wi {
			t.Errorf("image %d: batched argmax %d, Infer %d", i, gi, wi)
		}
		for j := range want.Data {
			if d := math.Abs(got[i].Data[j] - want.Data[j]); d > 1e-9 {
				t.Fatalf("image %d prob[%d]: |Δ| = %g > 1e-9 (batched %v, Infer %v)", i, j, d, got[i].Data[j], want.Data[j])
			}
		}
		one := net.InferBatchArena([]*tensor.T{x}, a)[0]
		for j := range one.Data {
			if math.Float64bits(one.Data[j]) != math.Float64bits(got[i].Data[j]) {
				t.Fatalf("image %d prob[%d]: batch of one %v, batch of %d %v", i, j, one.Data[j], len(xs), got[i].Data[j])
			}
		}
		a.Reset()
	}
	if a.Live() != 0 {
		t.Errorf("arena leaked %d live tensors", a.Live())
	}
}

// TestInferBatchArenaDoesNotMutateInput guards the read-only inference
// contract the concurrency layer depends on.
func TestInferBatchArenaDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := arenaTestNet(rng)
	xs := randomImages(rng, 3)
	orig := make([][]float64, len(xs))
	for i, x := range xs {
		orig[i] = append([]float64(nil), x.Data...)
	}
	net.InferBatchArena(xs, tensor.NewArena())
	for i, x := range xs {
		for j, v := range x.Data {
			if v != orig[i][j] {
				t.Fatalf("InferBatchArena mutated input %d at %d: %v -> %v", i, j, orig[i][j], v)
			}
		}
	}
}
