package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/tensor"
)

// tableSystem builds a System driven purely through an injected
// batchStageInferFn — the members are placeholders, so the decision engine
// can be exercised on synthetic softmax tables without any networks.
func tableSystem(n int, th Thresholds, staged bool, batch, workers int) *System {
	return &System{Members: make([]Member, n), Th: th, Staged: staged, Batch: batch, Workers: workers}
}

// oracle is the reference decision for one image whose member rows, in
// priority order, are rows: the per-sample staged loop the thresholds are
// profiled with (stagedDecision, the body of Recorded.Staged), or every
// member when the system is unstaged.
func oracle(s *System, rows [][]float64) Decision {
	if !s.Staged {
		return Decide(rows, s.Th)
	}
	return stagedDecision(rows, s.Th, s.Batch)
}

// TestClassifyParallelMatchesSequential is the core equivalence property of
// the engine for a single image: for random member outputs, thresholds,
// batch sizes and worker counts > 1 (members of a stage run concurrently),
// the batch-of-one Classify path returns a Decision deeply equal to the
// sequential per-sample oracle — same label, reliability, confidence, vote
// histogram, and (critically for RADE) the same Activated count.
func TestClassifyParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := tensor.New(1)
	const cases = 2000
	for c := 0; c < cases; c++ {
		n := 2 + rng.Intn(7)
		rows := randImageTables(rng, 1, n, 2+rng.Intn(5))[0]
		th := Thresholds{Conf: rng.Float64() * 0.95, Freq: 1 + rng.Intn(n)}
		staged := rng.Intn(4) != 0
		batch := 1 + rng.Intn(3)
		workers := 2 + rng.Intn(7)

		s := tableSystem(n, th, staged, batch, workers)
		want := oracle(s, rows)
		got, err := s.classifyOne(context.Background(), x, tableStageInfer([][][]float64{rows}, nil))
		if err != nil {
			t.Fatalf("case %d: unexpected error %v", c, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("case %d (n=%d th=%v staged=%v batch=%d workers=%d):\noracle %+v\nengine %+v",
				c, n, th, staged, batch, workers, want, got)
		}
	}
}

// TestClassifyParallelSingleWorkerFallsBack checks the degenerate pool sizes
// run every member inline and still agree with the oracle.
func TestClassifyParallelSingleWorkerFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(1)
	rows := [][]float64{randDist(rng, 3), randDist(rng, 3), randDist(rng, 3)}
	for _, workers := range []int{1, -1} {
		s := tableSystem(3, Thresholds{Conf: 0.2, Freq: 2}, true, 1, workers)
		want := oracle(s, rows)
		got, err := s.classifyOne(context.Background(), x, tableStageInfer([][][]float64{rows}, nil))
		if err != nil || !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: oracle %+v != engine %+v (err %v)", workers, want, got, err)
		}
	}
}

func TestWorkerCount(t *testing.T) {
	s := &System{Workers: 4}
	if got := s.workerCount(8); got != 4 {
		t.Errorf("workerCount(8) with Workers=4 = %d", got)
	}
	if got := s.workerCount(2); got != 2 {
		t.Errorf("workerCount clamps to work units: got %d", got)
	}
	s.Workers = -3
	if got := s.workerCount(1); got != 1 {
		t.Errorf("workerCount floor = %d, want 1", got)
	}
}

// TestClassifyBatchNetworksMatchesSequential is the equivalence property of
// the staged batch engine: for random member-output tables, staging
// configurations and batch compositions, it must return, for every image, a
// Decision deeply equal to the sequential per-sample oracle on that image
// alone — same label, reliability, confidence, vote histogram and Activated
// count — even though images share a global stage schedule and drop out of
// the batch at different boundaries. Real kernels are covered by
// TestParallelAndBatchMatchOnRealSystem.
func TestClassifyBatchNetworksMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	const cases = 1500
	for c := 0; c < cases; c++ {
		n := 2 + rng.Intn(7)
		classes := 2 + rng.Intn(5)
		B := 1 + rng.Intn(9)
		// tables[i][m] is image i's softmax row from member m.
		tables := randImageTables(rng, B, n, classes)
		th := Thresholds{Conf: rng.Float64() * 0.95, Freq: 1 + rng.Intn(n)}
		staged := rng.Intn(4) != 0
		batch := 1 + rng.Intn(3)
		workers := 1 + rng.Intn(8)
		s := tableSystem(n, th, staged, batch, workers)

		// Images carry their table index in Data[0] so the seam can serve
		// the right rows regardless of pending-set composition.
		xs := indexedInputs(B)
		got, _, err := s.classifyBatchStagedWith(context.Background(), xs, nil, tableStageInfer(tables, nil))
		if err != nil {
			t.Fatalf("case %d: unexpected error %v", c, err)
		}
		for i := 0; i < B; i++ {
			if want := oracle(s, tables[i]); !reflect.DeepEqual(want, got[i]) {
				t.Fatalf("case %d image %d (n=%d B=%d th=%v staged=%v batch=%d workers=%d):\noracle  %+v\nbatched %+v",
					c, i, n, B, th, staged, batch, workers, want, got[i])
			}
		}
	}
}

// TestClassifyBatchNetworksDuplicateHeavy extends the equivalence property
// to duplicate-heavy batches: when many positions repeat the same image,
// every position's Decision — Activated count, votes, label, reliability,
// confidence — must stay bit-identical to the sequential oracle,
// and duplicate positions must agree with each other exactly. This is the
// correctness floor the cache layer's intra-batch dedup builds on.
func TestClassifyBatchNetworksDuplicateHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	const cases = 500
	for c := 0; c < cases; c++ {
		n := 2 + rng.Intn(7)
		classes := 2 + rng.Intn(5)
		unique := 1 + rng.Intn(4)
		B := unique + rng.Intn(12) // every batch has at least one duplicate candidate
		tables := randImageTables(rng, unique, n, classes)
		th := Thresholds{Conf: rng.Float64() * 0.95, Freq: 1 + rng.Intn(n)}
		s := tableSystem(n, th, rng.Intn(4) != 0, 1+rng.Intn(3), 1+rng.Intn(8))

		idx := make([]int, B)
		xs := make([]*tensor.T, B)
		for i := range xs {
			idx[i] = rng.Intn(unique)
			xs[i] = tensor.New(1)
			xs[i].Data[0] = float64(idx[i])
		}
		got, _, err := s.classifyBatchStagedWith(context.Background(), xs, nil, tableStageInfer(tables, nil))
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		firstOf := map[int]int{}
		for i := 0; i < B; i++ {
			if want := oracle(s, tables[idx[i]]); !reflect.DeepEqual(want, got[i]) {
				t.Fatalf("case %d position %d (table %d):\noracle  %+v\nbatched %+v",
					c, i, idx[i], want, got[i])
			}
			if j, dup := firstOf[idx[i]]; dup {
				if !reflect.DeepEqual(got[j], got[i]) {
					t.Fatalf("case %d: duplicate positions %d and %d diverged:\n%+v\n%+v",
						c, j, i, got[j], got[i])
				}
			} else {
				firstOf[idx[i]] = i
			}
		}
	}
}

// TestClassifyBatchNetworksCancelled checks the batched engine aborts before
// any member inference under a pre-cancelled context.
func TestClassifyBatchNetworksCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	infer := tableStageInfer([][][]float64{{{1, 0}, {1, 0}, {1, 0}}}, func(int, Backend, bool) { ran.Add(1) })
	s := tableSystem(3, Thresholds{Conf: 0.5, Freq: 2}, true, 1, 3)
	xs := []*tensor.T{tensor.New(1), tensor.New(1)}
	if out, _, err := s.classifyBatchStagedWith(ctx, xs, nil, infer); err == nil || out != nil {
		t.Errorf("classifyBatchStagedWith = %v, %v; want nil, ctx error", out, err)
	}
	if ran := ran.Load(); ran != 0 {
		t.Errorf("ran %d member inferences under a cancelled context", ran)
	}
}

func TestClassifyBatchEmpty(t *testing.T) {
	s := tableSystem(2, Thresholds{Freq: 1}, false, 1, 2)
	if out := s.ClassifyBatch(nil); len(out) != 0 {
		t.Errorf("ClassifyBatch(nil) = %v", out)
	}
}

// TestParallelAndBatchMatchOnRealSystem locks the equivalence down on a real
// zoo-trained system: for every test image, Classify (with members of a
// stage running concurrently) and ClassifyBatch at Workers 1 and 3 must
// reproduce the sequential oracle over the members' own softmax rows
// exactly — including the float64 Confidence.
func TestParallelAndBatchMatchOnRealSystem(t *testing.T) {
	zoo := model.NewZoo(t.TempDir(), dataset.Fast)
	b := testBenchmark("corepar")
	variants := []model.Variant{{}, {Preproc: "FlipX"}, {Preproc: "Gamma(2)"}, {Preproc: "FlipY"}}
	sys, err := BuildSystem(zoo, b, variants)
	if err != nil {
		t.Fatal(err)
	}

	ds, _ := zoo.Dataset(b.DatasetName)
	frames := ds.Test
	if len(frames) > 120 {
		frames = frames[:120]
	}
	xs := make([]*tensor.T, len(frames))
	rows := make([][][]float64, len(frames))
	for i, s := range frames {
		xs[i] = s.X
		for m := range sys.Members {
			rows[i] = append(rows[i], sys.stageInfer(m, BackendF64, false, []*tensor.T{s.X})[0])
		}
	}

	for _, staged := range []bool{true, false} {
		sys.Staged = staged
		want := make([]Decision, len(xs))
		for i := range xs {
			want[i] = oracle(sys, rows[i])
		}
		sys.Workers = 4
		for i, x := range xs {
			if got := sys.Classify(x); !reflect.DeepEqual(want[i], got) {
				t.Fatalf("staged=%v Classify frame %d: %+v != %+v", staged, i, got, want[i])
			}
		}
		for _, workers := range []int{1, 3} {
			sys.Workers = workers
			got := sys.ClassifyBatch(xs)
			for i := range got {
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Fatalf("staged=%v workers=%d ClassifyBatch frame %d: %+v != %+v",
						staged, workers, i, got[i], want[i])
				}
			}
		}
	}
}
