package cache

import (
	"math"
	"math/rand"
	"testing"
)

func refConfig() SystemConfig {
	return SystemConfig{
		Conf:     0.6,
		Freq:     2,
		Staged:   true,
		Batch:    1,
		Members:  []string{"ORG", "FlipX", "Preproc#3"},
		Backends: []string{"f64", "int8", "f64"},
		Salt:     "bits=16",
	}
}

func refImage() ([]int, []float64) {
	shape := []int{1, 2, 2}
	pixels := []float64{0, 0.25, 0.5, 1}
	return shape, pixels
}

// Golden digests pin the byte layout: these constants were produced by this
// implementation and must never change for the same inputs — a cached
// prediction written by one process must be readable by the next. Update
// them ONLY together with a digestSchema bump.
const (
	goldenFingerprint = "4eeec111aaf3f090edf0c35ac65e3cba975777dfe4f71ddaf89f0f0a3485f4c0"
	goldenKey         = "b48db98772815c1b944e055e7988053938cfa1c0ab3fa0e1d3f31a5d49f40bb3"
)

func TestDigestStableAcrossProcesses(t *testing.T) {
	fp := SystemFingerprint(refConfig())
	if fp.String() != goldenFingerprint {
		t.Errorf("fingerprint = %s; want pinned %s", fp, goldenFingerprint)
	}
	shape, pixels := refImage()
	k := ImageKey(fp, shape, pixels)
	if k.String() != goldenKey {
		t.Errorf("image key = %s; want pinned %s", k, goldenKey)
	}
	// And recomputing in-process is deterministic.
	if SystemFingerprint(refConfig()) != fp {
		t.Error("fingerprint not deterministic")
	}
	if ImageKey(fp, shape, pixels) != k {
		t.Error("image key not deterministic")
	}
}

// TestDigestSensitivity is the satellite property test: the key must
// change when any decision-relevant configuration field changes —
// Thr_Conf, Thr_Freq, the member set (or order), a preprocessor variant,
// staging shape, or the salt.
func TestDigestSensitivity(t *testing.T) {
	base := refConfig()
	shape, pixels := refImage()
	baseKey := ImageKey(SystemFingerprint(base), shape, pixels)

	mutations := map[string]func(*SystemConfig){
		"Conf":           func(c *SystemConfig) { c.Conf = 0.7 },
		"Freq":           func(c *SystemConfig) { c.Freq = 3 },
		"Staged":         func(c *SystemConfig) { c.Staged = false },
		"Batch":          func(c *SystemConfig) { c.Batch = 2 },
		"member removed": func(c *SystemConfig) { c.Members = c.Members[:2] },
		"member added":   func(c *SystemConfig) { c.Members = append(c.Members, "FlipY") },
		"variant swap":   func(c *SystemConfig) { c.Members = []string{"ORG", "FlipY", "Preproc#3"} },
		"member order":   func(c *SystemConfig) { c.Members = []string{"FlipX", "ORG", "Preproc#3"} },
		"backend change": func(c *SystemConfig) { c.Backends = []string{"f64", "f32", "f64"} },
		"backend order":  func(c *SystemConfig) { c.Backends = []string{"int8", "f64", "f64"} },
		"backends unset": func(c *SystemConfig) { c.Backends = nil },
		"policy":         func(c *SystemConfig) { c.Policy = "slo=10ms" },
		"salt":           func(c *SystemConfig) { c.Salt = "bits=8" },
	}
	for name, mutate := range mutations {
		cfg := refConfig()
		cfg.Members = append([]string(nil), cfg.Members...)
		mutate(&cfg)
		if ImageKey(SystemFingerprint(cfg), shape, pixels) == baseKey {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
	// Field-boundary ambiguity: member names must be length-prefixed so
	// {"AB","C"} and {"A","BC"} differ.
	a, b := refConfig(), refConfig()
	a.Members = []string{"AB", "C"}
	b.Members = []string{"A", "BC"}
	if SystemFingerprint(a) == SystemFingerprint(b) {
		t.Error("member name boundaries not encoded")
	}
}

func TestDigestRandomizedConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := make(map[Fingerprint]int)
	for i := 0; i < 500; i++ {
		cfg := SystemConfig{
			Conf:   float64(rng.Intn(100)) / 100,
			Freq:   1 + rng.Intn(8),
			Staged: rng.Intn(2) == 0,
			Batch:  1 + rng.Intn(4),
			Salt:   "",
		}
		for m := 0; m <= rng.Intn(5); m++ {
			cfg.Members = append(cfg.Members, []string{"ORG", "FlipX", "FlipY", "Gamma", "Preproc#1"}[rng.Intn(5)])
		}
		fp := SystemFingerprint(cfg)
		if prev, dup := seen[fp]; dup {
			// Collisions are only acceptable for identical configs; with a
			// 256-bit digest any observed collision is a layout bug.
			t.Fatalf("fingerprint collision between random configs %d and %d", prev, i)
		}
		seen[fp] = i
		if SystemFingerprint(cfg) != fp {
			t.Fatal("fingerprint not deterministic")
		}
	}
}

func TestImageKeyQuantization(t *testing.T) {
	fp := SystemFingerprint(refConfig())
	shape := []int{1, 1, 2}
	base := ImageKey(fp, shape, []float64{0.5, 0.25})

	// Sub-precision noise (< 2^-17) quantizes to the same bucket.
	if ImageKey(fp, shape, []float64{0.5 + 1e-7, 0.25 - 1e-7}) != base {
		t.Error("sub-precision perturbation changed the key")
	}
	// Perceptible change (> 2^-16) must change it.
	if ImageKey(fp, shape, []float64{0.5 + 1e-3, 0.25}) == base {
		t.Error("perceptible pixel change kept the key")
	}
	// Different shape, same flat pixels.
	if ImageKey(fp, []int{1, 2, 1}, []float64{0.5, 0.25}) == base {
		t.Error("shape not encoded")
	}
	// Out-of-range and non-finite pixels map to stable sentinel buckets:
	// NaN, +Inf-or-huge, -Inf-or-huge, and finite are four distinct classes.
	classes := map[string][][]float64{
		"nan":  {{math.NaN(), 0}},
		"+inf": {{math.Inf(1), 0}, {1e300, 0}},
		"-inf": {{math.Inf(-1), 0}, {-1e300, 0}},
		"fin":  {{42, 0}},
	}
	keyOf := make(map[string]Key)
	for name, pxs := range classes {
		k := ImageKey(fp, shape, pxs[0])
		if k != ImageKey(fp, shape, pxs[0]) {
			t.Errorf("class %s: key not deterministic", name)
		}
		for _, px := range pxs[1:] {
			if ImageKey(fp, shape, px) != k {
				t.Errorf("class %s: members %v and %v split", name, pxs[0], px)
			}
		}
		keyOf[name] = k
	}
	for a, ka := range keyOf {
		for b, kb := range keyOf {
			if a != b && ka == kb {
				t.Errorf("classes %s and %s collided", a, b)
			}
		}
	}
}

func TestQuantizeSentinels(t *testing.T) {
	if quantize(math.NaN()) != math.MaxInt64 {
		t.Error("NaN sentinel")
	}
	if quantize(math.Inf(1)) != math.MaxInt64-1 {
		t.Error("+Inf sentinel")
	}
	if quantize(math.Inf(-1)) != math.MinInt64+1 {
		t.Error("-Inf sentinel")
	}
	if quantize(1e300) != math.MaxInt64-1 || quantize(-1e300) != math.MinInt64+1 {
		t.Error("huge finite values must clamp to the Inf sentinels")
	}
	if quantize(0.5) != 1<<15 {
		t.Errorf("quantize(0.5) = %d; want %d", quantize(0.5), 1<<15)
	}
}
