// Package nn is a from-scratch convolutional neural network framework:
// layers, forward/backward propagation, softmax cross-entropy loss, and
// SGD training. It substitutes for the Caffe/cuDNN stack used by the
// PolygraphMR paper (DESIGN.md §1): the reliability machinery only consumes
// the softmax vector of each member CNN, so any correct trainable CNN stack
// exercises the same code paths.
//
// Layers are stateful only during training: Forward with train=true caches
// what Backward needs, and Backward accumulates parameter gradients in
// place, so a Network must not be shared across goroutines while training.
// Inference is read-only by contract: Forward with train=false (and the
// batched path InferBatchArena) must not mutate layer state, parameters, or
// the input tensor, which makes Network.Infer/InferBatchArena safe for
// concurrent use on a single shared *Network. The race tests in internal/core exercise
// this guarantee under -race; any new layer must preserve it.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Layer is a differentiable network stage.
type Layer interface {
	// Name returns a short identifier used in serialization and debugging.
	Name() string
	// OutShape returns the output shape for the given input shape. It is
	// also used at build time to validate layer chaining.
	OutShape(in []int) ([]int, error)
	// Forward computes the layer output. When train is true the layer
	// caches intermediate state for a subsequent Backward call.
	Forward(x *tensor.T, train bool) *tensor.T
	// Backward consumes the gradient of the loss w.r.t. this layer's
	// output, accumulates gradients into the layer parameters, and returns
	// the gradient w.r.t. the layer input. It must only be called after a
	// Forward with train=true.
	Backward(grad *tensor.T) *tensor.T
	// Params returns the trainable parameters, in a stable order.
	Params() []*Param
}

// Param is one trainable parameter tensor together with its accumulated
// gradient.
type Param struct {
	Name  string
	Value *tensor.T
	Grad  *tensor.T
	// Decay marks the parameter as subject to weight decay (biases and
	// normalization scales typically are not).
	Decay bool
}

// newParam allocates a parameter with a zeroed gradient of matching shape.
func newParam(name string, value *tensor.T, decay bool) *Param {
	return &Param{Name: name, Value: value, Grad: value.ZerosLike(), Decay: decay}
}

// Stats summarizes the computational footprint of one layer, consumed by the
// analytical performance model (internal/perf).
type Stats struct {
	// MACs is the number of multiply-accumulate operations per inference.
	MACs int
	// ParamElems is the number of weight elements that must be loaded.
	ParamElems int
	// ActElems is the number of output activation elements stored.
	ActElems int
}

// Counter is implemented by layers that can report their computational
// footprint for a given input shape.
type Counter interface {
	Stats(in []int) Stats
}

// Stateful is implemented by layers carrying non-trainable state (e.g.
// normalization running statistics) that must survive serialization. The
// returned tensors alias the live state so loads update the layer in place.
type Stateful interface {
	StateTensors() []*tensor.T
}

// heInit fills w with He-normal initialization for the given fan-in, the
// standard choice for ReLU networks.
func heInit(w *tensor.T, fanIn int, rng *rand.Rand) {
	w.FillNormal(rng, 0, math.Sqrt(2.0/float64(fanIn)))
}

// xavierInit fills w with Xavier/Glorot-normal initialization.
func xavierInit(w *tensor.T, fanIn, fanOut int, rng *rand.Rand) {
	w.FillNormal(rng, 0, math.Sqrt(2.0/float64(fanIn+fanOut)))
}

// prodShape multiplies shape dimensions.
func prodShape(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// shapeEq reports whether two shapes are identical.
func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func shapeErr(layer string, in []int, want string) error {
	return fmt.Errorf("nn: %s: unsupported input shape %v (want %s)", layer, in, want)
}
