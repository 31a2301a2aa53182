package polygraph

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// TestDecisionBatchInvariant pins the property the prediction cache and
// the cluster ring rest on: a prediction is a pure function of the image
// and the system configuration. For zoo-trained lenet5 and convnet systems
// on every numeric backend, with the SIMD kernels on and off and at one and
// at NumCPU workers, ClassifyBatch over sub-batches of 1, 2 and 7 images,
// and Classify one image at a time, must return predictions DeepEqual —
// Confidence bits included — to one ClassifyBatch over all 32 images.
func TestDecisionBatchInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo-backed invariance test in -short mode")
	}
	defer tensor.SetSIMD(tensor.SIMDEnabled())
	for _, bench := range []string{"lenet5", "convnet"} {
		images, _, err := TestImages(bench, 32)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []string{"f64", "f32", "int8"} {
			sys, err := Build(bench, Options{Members: 3, Quiet: true, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			for _, simd := range []bool{true, false} {
				for _, workers := range []int{1, runtime.NumCPU()} {
					name := fmt.Sprintf("%s/%s/simd=%v/workers=%d", bench, backend, simd, workers)
					t.Run(name, func(t *testing.T) {
						tensor.SetSIMD(simd)
						sys.sys.Workers = workers
						want, err := sys.ClassifyBatch(images)
						if err != nil {
							t.Fatal(err)
						}
						for _, bsz := range []int{1, 2, 7} {
							for lo := 0; lo < len(images); lo += bsz {
								hi := min(lo+bsz, len(images))
								got, err := sys.ClassifyBatch(images[lo:hi])
								if err != nil {
									t.Fatal(err)
								}
								for i, p := range got {
									if !reflect.DeepEqual(p, want[lo+i]) {
										t.Fatalf("B=%d image %d: %+v, B=32 gives %+v", bsz, lo+i, p, want[lo+i])
									}
								}
							}
						}
						for i, im := range images {
							p, err := sys.Classify(im)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(p, want[i]) {
								t.Fatalf("Classify image %d: %+v, B=32 gives %+v", i, p, want[i])
							}
						}
					})
				}
			}
			sys.Close()
		}
	}
}
