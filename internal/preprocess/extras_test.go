package preprocess

import (
	"math"
	"sync"
	"testing"

	"repro/internal/tensor"
)

func TestComposeChainsInOrder(t *testing.T) {
	x := randImage(10, 1, 8, 8)
	composed := NewCompose(FlipX{}, Gamma{G: 2})
	got := composed.Apply(x)
	want := Gamma{G: 2}.Apply(FlipX{}.Apply(x))
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("Compose differs from manual chain at %d", i)
		}
	}
	if composed.Name() != "FlipX+Gamma(2)" {
		t.Errorf("Name = %q", composed.Name())
	}
	if NewCompose().Name() != "ORG" {
		t.Error("empty compose should be ORG")
	}
}

func TestRotate90FourTimesIsIdentity(t *testing.T) {
	x := randImage(11, 3, 9, 9)
	y := x
	for i := 0; i < 4; i++ {
		y = Rotate90{}.Apply(y)
	}
	for i := range x.Data {
		if x.Data[i] != y.Data[i] {
			t.Fatal("four Rotate90 applications differ from identity")
		}
	}
	// A single rotation must move a corner pixel correctly: (0,0) -> (0, h-1).
	z := tensor.New(1, 4, 4)
	z.Set(1, 0, 0, 0)
	r := Rotate90{}.Apply(z)
	if r.At(0, 0, 3) != 1 {
		t.Error("corner did not rotate to expected position")
	}
}

func TestRotate90RequiresSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-square rotation did not panic")
		}
	}()
	Rotate90{}.Apply(tensor.New(1, 4, 6))
}

func TestNoiseAddsBoundedNoise(t *testing.T) {
	n := NewNoise(0.1, 7)
	x := tensor.New(1, 16, 16)
	x.Fill(0.5)
	y := n.Apply(x)
	diff := 0.0
	for i := range y.Data {
		if y.Data[i] < 0 || y.Data[i] > 1 {
			t.Fatalf("noise escaped [0,1]: %v", y.Data[i])
		}
		diff += math.Abs(y.Data[i] - 0.5)
	}
	if diff == 0 {
		t.Error("no noise added")
	}
	// Two applications differ (fresh draws).
	y2 := n.Apply(x)
	same := true
	for i := range y.Data {
		if y.Data[i] != y2.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("repeated Apply produced identical noise")
	}
}

// Members share one preprocessor value across concurrent ClassifyBatch
// calls, so Noise.Apply must be safe from several goroutines at once (run
// with -race). A zero-value Noise seeds itself from Seed on first use.
func TestNoiseConcurrentApply(t *testing.T) {
	x := tensor.New(1, 8, 8)
	x.Fill(0.5)
	first := (&Noise{Std: 0.1, Seed: 3}).Apply(x)
	want := NewNoise(0.1, 3).Apply(x)
	for i := range want.Data {
		if first.Data[i] != want.Data[i] {
			t.Fatalf("zero-value Noise{Seed: 3} drew %v at %d, NewNoise(0.1, 3) drew %v", first.Data[i], i, want.Data[i])
		}
	}

	n := &Noise{Std: 0.1}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				for i, v := range n.Apply(x).Data {
					if v < 0 || v > 1 {
						t.Errorf("concurrent Apply: pixel %d = %v out of [0,1]", i, v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestCenterCropZoomsIn(t *testing.T) {
	// Bright center, dark border: cropping raises the mean.
	x := tensor.New(1, 16, 16)
	for y := 4; y < 12; y++ {
		for xx := 4; xx < 12; xx++ {
			x.Data[y*16+xx] = 1
		}
	}
	c := CenterCrop{Frac: 0.5}
	y := c.Apply(x)
	if !y.SameShape(x) {
		t.Fatalf("shape changed: %v", y.Shape)
	}
	if y.Sum() <= x.Sum() {
		t.Errorf("crop of bright center did not raise mean: %v vs %v", y.Sum(), x.Sum())
	}
	if (CenterCrop{}).Name() != "CenterCrop(0.8)" {
		t.Errorf("default Name = %q", CenterCrop{}.Name())
	}
}
