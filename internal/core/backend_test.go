package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/preprocess"
	"repro/internal/tensor"
)

func TestParseBackend(t *testing.T) {
	cases := map[string]Backend{"": BackendF64, "f64": BackendF64, "f32": BackendF32, "int8": BackendInt8}
	for s, want := range cases {
		got, err := ParseBackend(s)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"f16", "INT8", "float32", "junk"} {
		if _, err := ParseBackend(s); err == nil {
			t.Errorf("ParseBackend(%q) accepted", s)
		}
	}
	if BackendInt8.String() != "int8" || BackendF32.String() != "f32" || BackendF64.String() != "f64" {
		t.Error("Backend.String round-trip broken")
	}
}

// backendSystem builds a 3-member system sharing one deterministic network
// per zoo topology, with the members set to the given backend and prepared
// on a calibration slice of the input pool.
func backendSystem(t *testing.T, b model.Benchmark, backend Backend) (*System, []*tensor.T) {
	t.Helper()
	cfg, err := b.DatasetConfig(0) // dataset.Fast
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	net := b.Build(rng, cfg.Classes, []int{cfg.Channels, cfg.H, cfg.W})
	pres := []string{"ORG", "FlipX", "FlipY"}
	members := make([]Member, len(pres))
	for i, p := range pres {
		members[i] = Member{Name: p, Pre: preprocess.MustByName(p), Net: net, Backend: backend}
	}
	sys, err := NewSystem(members, Thresholds{Conf: 0.2, Freq: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.Staged = true
	xs := make([]*tensor.T, 32)
	for i := range xs {
		xs[i] = tensor.New(cfg.Channels, cfg.H, cfg.W)
		xs[i].FillUniform(rng, 0, 1)
	}
	if err := sys.PrepareBackends(xs[:8]); err != nil {
		t.Fatal(err)
	}
	return sys, xs
}

// TestBackendBatchMatchesSequential locks the batch-invariance property
// WITHIN each reduced-precision backend: per-image Classify and
// ClassifyBatch run the very same compiled nets through the one engine, so
// for every zoo topology, B ∈ {1, 2, 7, 32} and Workers ∈ {1, 3} the
// decisions — label, reliability, votes, the RADE dropout schedule via
// Activated, and the Confidence bits — must be identical.
func TestBackendBatchMatchesSequential(t *testing.T) {
	for _, backend := range []Backend{BackendF32, BackendInt8} {
		for _, b := range model.Benchmarks() {
			b := b
			t.Run(backend.String()+"/"+b.Name, func(t *testing.T) {
				sys, xs := backendSystem(t, b, backend)
				want := make([]Decision, len(xs))
				for i, x := range xs {
					want[i] = sys.Classify(x)
				}
				for _, bsz := range []int{1, 2, 7, 32} {
					for _, workers := range []int{3, 1} {
						sys.Workers = workers
						got := sys.ClassifyBatch(xs[:bsz])
						for i := range got {
							if !reflect.DeepEqual(want[i], got[i]) {
								t.Fatalf("B=%d workers=%d image %d: batched %+v != per-image %+v", bsz, workers, i, got[i], want[i])
							}
						}
					}
				}
			})
		}
	}
}

// TestBackendAgreementWithF64 locks the accuracy contract of the reduced
// backends at the decision level: aggregated across every zoo topology,
// ClassifyBatch decisions under f32 and int8 must agree with the f64
// reference on ≥99% of labels.
func TestBackendAgreementWithF64(t *testing.T) {
	for _, backend := range []Backend{BackendF32, BackendInt8} {
		t.Run(backend.String(), func(t *testing.T) {
			total, agree := 0, 0
			for _, b := range model.Benchmarks() {
				ref, xs := backendSystem(t, b, BackendF64)
				want := make([]Decision, len(xs))
				for i, x := range xs {
					want[i] = ref.Classify(x)
				}
				sys, _ := backendSystem(t, b, backend)
				sys.Workers = 3
				got := sys.ClassifyBatch(xs)
				for i := range got {
					total++
					if got[i].Label == want[i].Label {
						agree++
					} else {
						t.Logf("%s image %d: %s label %d != f64 %d", b.Name, i, backend, got[i].Label, want[i].Label)
					}
				}
			}
			if rate := float64(agree) / float64(total); rate < 0.99 {
				t.Fatalf("%s label agreement %d/%d = %.4f < 0.99", backend, agree, total, rate)
			}
		})
	}
}

// TestPrepareBackendsErrors covers the refusal paths.
func TestPrepareBackendsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := nn.MustNetwork([]int{1, 8, 8}, 4,
		nn.NewConv2D(1, 3, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewFlatten(), nn.NewDense(3*4*4, 4, rng),
	)
	sys, err := NewSystem([]Member{{Name: "ORG", Pre: preprocess.MustByName("ORG"), Net: net, Backend: BackendInt8}},
		Thresholds{Conf: 0.2, Freq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.PrepareBackends(nil); err == nil {
		t.Error("PrepareBackends accepted int8 without calibration data")
	}
	sys.Members[0].Backend = Backend(42)
	if err := sys.PrepareBackends(nil); err == nil {
		t.Error("PrepareBackends accepted an unknown backend")
	}
	// f64 needs no calibration and clears any stale compiled net.
	sys.Members[0].Backend = BackendF64
	if err := sys.PrepareBackends(nil); err != nil {
		t.Errorf("PrepareBackends(f64) = %v", err)
	}
	// An ActivationHook blocks compilation; the error names the member.
	sys.Members[0].Backend = BackendF32
	net.ActivationHook = func(int, *tensor.T) {}
	if err := sys.PrepareBackends(nil); err == nil {
		t.Error("PrepareBackends compiled a hooked network")
	}
}

// TestBackendFingerprint locks that the backend schedule is
// decision-relevant configuration: changing any member's backend must
// change the system fingerprint (and with it every cache key).
func TestBackendFingerprint(t *testing.T) {
	sys, _ := backendSystem(t, testBenchmark("fp"), BackendF64)
	base := sys.ConfigFingerprint("")
	sys.Members[1].Backend = BackendInt8
	if sys.ConfigFingerprint("") == base {
		t.Error("changing a member backend kept the fingerprint")
	}
	sys.Members[1].Backend = BackendF32
	if sys.ConfigFingerprint("") == base {
		t.Error("f32 backend kept the fingerprint")
	}
}

// TestBackendInt8SharedRace is the shared-member hammer on the int8 path:
// four members share ONE underlying network, each compiled to its own int8
// net, and many goroutines run overlapping batched classifications on the
// shared System. Under -race this flags any mutation in the quantized
// forward pass; without it, the reference comparison still catches
// cross-talk corruption (int8 inference is bit-deterministic).
func TestBackendInt8SharedRace(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	net := nn.MustNetwork([]int{1, 8, 8}, 4,
		nn.NewConv2D(1, 3, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewFlatten(), nn.NewDense(3*4*4, 4, rng),
	)
	pres := []string{"ORG", "FlipX", "FlipY", "Gamma(2)"}
	members := make([]Member, len(pres))
	for i, p := range pres {
		members[i] = Member{Name: p, Pre: preprocess.MustByName(p), Net: net, Backend: BackendInt8}
	}
	sys, err := NewSystem(members, Thresholds{Conf: 0.2, Freq: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.Staged = true
	sys.Workers = 3
	xs := make([]*tensor.T, 16)
	for i := range xs {
		xs[i] = tensor.New(1, 8, 8)
		for j := range xs[i].Data {
			xs[i].Data[j] = rng.Float64()
		}
	}
	if err := sys.PrepareBackends(xs[:4]); err != nil {
		t.Fatal(err)
	}

	want := sys.ClassifyBatch(xs)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				lo := (g + rep) % 8
				got := sys.ClassifyBatch(xs[lo : lo+8])
				for i := range got {
					if !reflect.DeepEqual(got[i], want[lo+i]) {
						errs <- "concurrent int8 decision diverged"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
