package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	polygraph "repro"
	"repro/internal/nn"
)

// inputs are the images one run sends, all derived from the held-out
// synthetic test split and the seed.
type inputs struct {
	pool   []polygraph.Image
	labels []int
	// refs are the reference decisions for pool, computed during set-up.
	refs []polygraph.Prediction
	// Serving: pool indices in send order.
	warm, timed []int
	// bodies are the pre-marshaled request bodies, per pool index, held in
	// arena.
	bodies [][]byte
	arena  *bodyArena
	// Batch: the seeded order the closed loop walks the pool in.
	order []int
	// probe are the first images sent, for the layer probe of a traced run.
	probe []polygraph.Image
}

// newInputs builds the inputs of workload w for a timed phase of the given
// length.
func newInputs(w workload, test []nn.Sample, seed int64, seconds float64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	switch {
	case !w.serve:
		// The test split itself, walked in a seeded order; every batch holds
		// batchSize distinct images.
		for j := range test {
			in.add(poolImage(test, j, 0))
		}
		in.order = rng.Perm(len(test))
		in.setProbe(in.order)
		return in, nil
	case w.zipf:
		// A fixed pool: the test split, then its variants, so rank k is the
		// same image for every seed and only the arrival order changes.
		for k := 0; k < zipfPool; k++ {
			in.add(poolImage(test, k%len(test), k/len(test)))
		}
		in.warm = zipfSequence(int(w.rate()*warmup.Seconds()), zipfPool, zipfS, rng)
		in.timed = zipfSequence(int(w.rate()*seconds), zipfPool, zipfS, rng)
	default:
		// Never-repeated images: the test split, then its variants, round
		// after round. The timed phase takes the first ones, so it always
		// covers the whole split, and warm-up the rest; the seed shuffles the
		// order each is sent in.
		n, nw := int(w.rate()*seconds), int(w.rate()*warmup.Seconds())
		for i := 0; i < n+nw; i++ {
			in.add(poolImage(test, i%len(test), i/len(test)))
		}
		in.timed, in.warm = rng.Perm(n), rng.Perm(nw)
		for i := range in.warm {
			in.warm[i] += n
		}
	}
	if len(in.timed) == 0 {
		return nil, fmt.Errorf("%s: %.0f req/s over %gs sends no request", w.name, w.rate(), seconds)
	}
	in.setProbe(in.timed)
	// A pixel in [0, 1] marshals to at most 23 bytes ("1.2345678901234567e-100")
	// plus its comma.
	arena, err := newBodyArena(len(in.pool) * (len(in.pool[0].Pixels)*24 + 128))
	if err != nil {
		return nil, err
	}
	in.arena = arena
	in.bodies = make([][]byte, len(in.pool))
	for i, im := range in.pool {
		b, err := json.Marshal(map[string]any{"image": map[string]any{
			"channels": im.Channels, "height": im.Height, "width": im.Width, "pixels": im.Pixels,
		}})
		if err == nil {
			in.bodies[i], err = arena.add(b)
		}
		if err != nil {
			in.close()
			return nil, fmt.Errorf("marshal image %d: %w", i, err)
		}
	}
	return in, nil
}

// close releases the request bodies.
func (in *inputs) close() error {
	if in.arena == nil {
		return nil
	}
	in.bodies = nil
	return in.arena.free()
}

// setProbe keeps the first images of the send sequence seq for the layer
// probe: probeImages plus one batch that warms the probe's arenas.
func (in *inputs) setProbe(seq []int) {
	for i := 0; i < probeImages+batchSize; i++ {
		in.probe = append(in.probe, in.pool[seq[i%len(seq)]])
	}
}

func (in *inputs) add(im polygraph.Image, label int) {
	in.pool = append(in.pool, im)
	in.labels = append(in.labels, label)
}

// poolImage returns variant round of test image j with its label. Round 0
// is the test image itself; a later round adds uniform noise of
// ±variantNoise to every pixel, clipped to [0, 1], making a distinct image
// that keeps the label. The noise depends only on (j, round), never on the
// run's seed, so every seed draws from the same images.
func poolImage(test []nn.Sample, j, round int) (polygraph.Image, int) {
	x := test[j].X
	im := polygraph.Image{
		Channels: x.Shape[0], Height: x.Shape[1], Width: x.Shape[2],
		Pixels: append([]float64(nil), x.Data...),
	}
	if round > 0 {
		rng := rand.New(rand.NewSource(int64(round)<<32 | int64(j)))
		for i, p := range im.Pixels {
			p += (2*rng.Float64() - 1) * variantNoise
			im.Pixels[i] = min(max(p, 0), 1)
		}
	}
	return im, test[j].Label
}

// computeRefs classifies the whole pool with sys in batches of batch
// images and keeps the decisions as the references every answer is checked
// against.
func (in *inputs) computeRefs(sys *polygraph.System, batch int) error {
	in.refs = make([]polygraph.Prediction, 0, len(in.pool))
	for lo := 0; lo < len(in.pool); lo += batch {
		preds, err := sys.ClassifyBatch(in.pool[lo:min(lo+batch, len(in.pool))])
		if err != nil {
			return fmt.Errorf("reference decisions: %w", err)
		}
		in.refs = append(in.refs, preds...)
	}
	if in.bodies != nil {
		// Serving sends only the bodies from here on; dropping the pixels
		// keeps them off the heap the server collects.
		for i := range in.pool {
			in.pool[i].Pixels = nil
		}
	}
	return nil
}
