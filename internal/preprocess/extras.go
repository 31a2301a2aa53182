package preprocess

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/tensor"
)

// The transforms in this file extend the paper's Table I pool. They are not
// used by the reproduced experiments but round out the library for users
// building their own PolygraphMR configurations.

// Compose chains preprocessors left to right.
type Compose struct {
	Steps []Preprocessor
}

var _ Preprocessor = Compose{}

// NewCompose builds a composite preprocessor.
func NewCompose(steps ...Preprocessor) Compose { return Compose{Steps: steps} }

// Name implements Preprocessor, e.g. "FlipX+Gamma(2)".
func (c Compose) Name() string {
	if len(c.Steps) == 0 {
		return "ORG"
	}
	name := c.Steps[0].Name()
	for _, s := range c.Steps[1:] {
		name += "+" + s.Name()
	}
	return name
}

// Apply implements Preprocessor.
func (c Compose) Apply(x *tensor.T) *tensor.T {
	out := x.Clone()
	for _, s := range c.Steps {
		out = s.Apply(out)
	}
	return out
}

// Rotate90 rotates the image by 90° clockwise. Height and width must match
// for the output shape to equal the input shape; Apply panics otherwise,
// matching the Preprocessor contract of shape preservation.
type Rotate90 struct{}

var _ Preprocessor = Rotate90{}

// Name implements Preprocessor.
func (Rotate90) Name() string { return "Rotate90" }

// Apply implements Preprocessor.
func (Rotate90) Apply(x *tensor.T) *tensor.T {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	if h != w {
		panic(fmt.Sprintf("preprocess: Rotate90 requires a square image, got %dx%d", h, w))
	}
	out := tensor.New(c, h, w)
	for ci := 0; ci < c; ci++ {
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				// (y, x) -> (x, h-1-y)
				out.Data[ci*h*w+xx*w+(h-1-y)] = clamp01(x.Data[ci*h*w+y*w+xx])
			}
		}
	}
	return out
}

// Noise adds zero-mean Gaussian pixel noise (clipped to [0,1]). Each Apply
// draws fresh noise from a deterministic per-instance RNG, so repeated
// application to the same image yields different views — a cheap diversity
// source akin to test-time augmentation. Apply is safe for concurrent use;
// concurrent calls draw from the one stream in the order they lock it.
type Noise struct {
	Std  float64
	Seed int64

	mu  sync.Mutex
	rng *rand.Rand // seeded from Seed by the first Apply
}

var _ Preprocessor = (*Noise)(nil)

// NewNoise creates a noise preprocessor with the given standard deviation.
func NewNoise(std float64, seed int64) *Noise {
	return &Noise{Std: std, Seed: seed}
}

// Name implements Preprocessor.
func (n *Noise) Name() string { return fmt.Sprintf("Noise(%g)", n.Std) }

// Apply implements Preprocessor.
func (n *Noise) Apply(x *tensor.T) *tensor.T {
	out := tensor.New(x.Shape...)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.rng == nil {
		n.rng = rand.New(rand.NewSource(n.Seed))
	}
	for i, v := range x.Data {
		out.Data[i] = clamp01(v + n.Std*n.rng.NormFloat64())
	}
	return out
}

// CenterCrop crops the central fraction of the image and resizes it back to
// the original extent with bilinear sampling — a zoom-in view.
type CenterCrop struct {
	// Frac is the retained central fraction in (0, 1]; 0 means 0.8.
	Frac float64
}

var _ Preprocessor = CenterCrop{}

// Name implements Preprocessor.
func (c CenterCrop) Name() string { return fmt.Sprintf("CenterCrop(%g)", c.frac()) }

func (c CenterCrop) frac() float64 {
	if c.Frac <= 0 || c.Frac > 1 {
		return 0.8
	}
	return c.Frac
}

// Apply implements Preprocessor.
func (c CenterCrop) Apply(x *tensor.T) *tensor.T {
	frac := c.frac()
	ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	ch2, cw := maxInt(1, int(float64(h)*frac)), maxInt(1, int(float64(w)*frac))
	y0, x0 := (h-ch2)/2, (w-cw)/2
	crop := tensor.New(ch, ch2, cw)
	for ci := 0; ci < ch; ci++ {
		for y := 0; y < ch2; y++ {
			src := x.Data[ci*h*w+(y0+y)*w+x0 : ci*h*w+(y0+y)*w+x0+cw]
			copy(crop.Data[ci*ch2*cw+y*cw:ci*ch2*cw+(y+1)*cw], src)
		}
	}
	out := tensor.New(ch, h, w)
	resizeBilinear(out, crop)
	for i, v := range out.Data {
		out.Data[i] = clamp01(v)
	}
	return out
}
