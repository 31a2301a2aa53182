package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/tensor"
)

func testCacheConfig() cache.Config {
	return cache.Config{MaxBytes: 1 << 20, TTL: time.Hour, Shards: 4}
}

// tableRunners adapts a per-image softmax table set to the cached-path
// seams: tensors carry their table index in Data[0], exactly like the
// engine property tests. calls counts the images computed — a batch adds
// its size, a single image (which runs its initial stage through member 0)
// adds one.
func tableRunners(s *System, tables [][][]float64, calls *atomic.Int64) (batchStageInferFn, runBatchFn) {
	infer := tableStageInfer(tables, nil)
	one := func(m int, be Backend, override bool, xs []*tensor.T) [][]float64 {
		if m == 0 {
			calls.Add(int64(len(xs)))
		}
		return infer(m, be, override, xs)
	}
	runBatch := func(ctx context.Context, xs []*tensor.T) ([]Decision, bool, error) {
		calls.Add(int64(len(xs)))
		return s.classifyBatchStagedWith(ctx, xs, nil, infer)
	}
	return one, runBatch
}

// TestClassifyBatchCachedMatchesSequentialTables is the cached-path
// equivalence property of the acceptance criteria: over randomized systems
// (thresholds, staging, batch shape) and duplicate-heavy batches, the
// cached ClassifyBatch path — store hits, intra-batch dedup, singleflight
// leads — returns decisions deeply equal (bit-identical, exact tables) to
// the sequential oracle on every position independently. A second
// pass over the same batch must be served from the store, again
// bit-identical, without recomputing anything.
func TestClassifyBatchCachedMatchesSequentialTables(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	const cases = 600
	for c := 0; c < cases; c++ {
		n := 2 + rng.Intn(7)
		classes := 2 + rng.Intn(5)
		unique := 1 + rng.Intn(6)
		B := 1 + rng.Intn(12)

		tables := randImageTables(rng, unique, n, classes)
		th := Thresholds{Conf: rng.Float64() * 0.95, Freq: 1 + rng.Intn(n)}
		s := tableSystem(n, th, rng.Intn(4) != 0, 1+rng.Intn(3), 1+rng.Intn(8))
		s.EnableCache(testCacheConfig(), "")

		// Duplicate-heavy batch: positions draw from a small unique pool.
		xs := make([]*tensor.T, B)
		for i := range xs {
			xs[i] = tensor.New(1)
			xs[i].Data[0] = float64(rng.Intn(unique))
		}

		var calls atomic.Int64
		one, runBatch := tableRunners(s, tables, &calls)
		got, err := s.classifyBatchCachedWith(context.Background(), xs, runBatch, one)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		for i := range xs {
			if want := oracle(s, tables[int(xs[i].Data[0])]); !reflect.DeepEqual(want, got[i]) {
				t.Fatalf("case %d position %d (dup of table %d):\noracle %+v\ncached %+v",
					c, i, int(xs[i].Data[0]), want, got[i])
			}
		}
		// Each unique image present in the batch was computed exactly once.
		uniq := map[int]bool{}
		for _, x := range xs {
			uniq[int(x.Data[0])] = true
		}
		if int(calls.Load()) != len(uniq) {
			t.Fatalf("case %d: computed %d images for %d unique inputs", c, calls.Load(), len(uniq))
		}

		// Second pass: pure store hits, still bit-identical.
		calls.Store(0)
		again, err := s.classifyBatchCachedWith(context.Background(), xs, runBatch, one)
		if err != nil {
			t.Fatalf("case %d second pass: %v", c, err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("case %d: cached second pass diverged", c)
		}
		if calls.Load() != 0 {
			t.Fatalf("case %d: second pass recomputed %d images", c, calls.Load())
		}
		st := s.Cache.Stats()
		if st.Hits == 0 {
			t.Fatalf("case %d: no store hits recorded: %+v", c, st)
		}
	}
}

// TestClassifyCachedSingle covers the single-image cached path: miss →
// compute+fill, hit → no recompute, and mutation safety of the returned
// Votes map.
func TestClassifyCachedSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tables := [][][]float64{{randDist(rng, 4), randDist(rng, 4), randDist(rng, 4)}}
	s := tableSystem(3, Thresholds{Conf: 0.1, Freq: 2}, true, 1, 1)
	s.EnableCache(testCacheConfig(), "")
	var calls atomic.Int64
	one, _ := tableRunners(s, tables, &calls)

	x := tensor.New(1)
	want := oracle(s, tables[0])

	d1, err := s.classifyCachedWith(context.Background(), x, one)
	if err != nil || !reflect.DeepEqual(d1, want) {
		t.Fatalf("first call = %+v, %v; want %+v", d1, err, want)
	}
	d2, err := s.classifyCachedWith(context.Background(), x, one)
	if err != nil || !reflect.DeepEqual(d2, want) {
		t.Fatalf("second call = %+v, %v; want %+v", d2, err, want)
	}
	if calls.Load() != 1 {
		t.Fatalf("computed %d times; want 1", calls.Load())
	}
	// Mutating a returned decision must not corrupt the cached copy.
	for k := range d2.Votes {
		d2.Votes[k] = 999
	}
	d3, _ := s.classifyCachedWith(context.Background(), x, one)
	if !reflect.DeepEqual(d3, want) {
		t.Fatal("cached decision corrupted by caller mutation")
	}
	if st := s.Cache.Stats(); st.Hits < 2 || st.Misses < 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

// TestClassifyCachedCoalescesConcurrent: concurrent identical single-image
// calls share one ensemble pass via the singleflight group.
func TestClassifyCachedCoalescesConcurrent(t *testing.T) {
	s := tableSystem(2, Thresholds{Conf: 0, Freq: 1}, false, 1, 1)
	s.EnableCache(testCacheConfig(), "")
	var calls atomic.Int64
	release := make(chan struct{})
	rows := tableStageInfer([][][]float64{{{0, 0, 0, 0, 0, 0, 0, 1}, {0, 0, 0, 0, 0, 0, 0, 1}}}, nil)
	infer := func(m int, be Backend, override bool, xs []*tensor.T) [][]float64 {
		if m == 0 {
			calls.Add(1)
		}
		<-release
		return rows(m, be, override, xs)
	}

	x := tensor.New(1)
	const callers = 12
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := s.classifyCachedWith(context.Background(), x, infer)
			if err != nil || d.Label != 7 || !d.Reliable {
				t.Errorf("coalesced call = %+v, %v", d, err)
			}
		}()
	}
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	close(release)
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("ensemble ran %d times for %d concurrent identical calls", c, callers)
	}
	if st := s.Cache.Stats(); st.Coalesced == 0 {
		t.Fatalf("no coalescing recorded: %+v", st)
	}
}

// TestClassifyBatchCachedErrorPropagates: a cancelled compute must fail the
// call, release the led flights (no deadlock for later callers), and cache
// nothing.
func TestClassifyBatchCachedErrorPropagates(t *testing.T) {
	s := tableSystem(2, Thresholds{Conf: 0, Freq: 1}, false, 1, 1)
	s.EnableCache(testCacheConfig(), "")
	runBatch := func(ctx context.Context, xs []*tensor.T) ([]Decision, bool, error) {
		return nil, false, context.Canceled
	}
	infer := tableStageInfer([][][]float64{{{0, 1}, {0, 1}}}, nil)
	x := tensor.New(1)
	if _, err := s.classifyBatchCachedWith(context.Background(), []*tensor.T{x}, runBatch, infer); err == nil {
		t.Fatal("expected error from failed compute")
	}
	// The key must not be poisoned: a later caller recomputes successfully.
	okBatch := func(ctx context.Context, xs []*tensor.T) ([]Decision, bool, error) {
		ds := make([]Decision, len(xs))
		for i := range ds {
			ds[i] = Decision{Label: 1, Votes: map[int]int{}, Activated: 2}
		}
		return ds, true, nil
	}
	ds, err := s.classifyBatchCachedWith(context.Background(), []*tensor.T{x}, okBatch, infer)
	if err != nil || ds[0].Label != 1 {
		t.Fatalf("retry after error = %+v, %v", ds, err)
	}
}

// TestCachedRealSystemBitIdentical locks the acceptance criterion on real
// networks: a cache-enabled system returns decisions deeply equal to its
// uncached twin on a duplicate-heavy batch — and to per-image Classify —
// at any worker count.
func TestCachedRealSystemBitIdentical(t *testing.T) {
	plain, xs := raceFixture(t)
	cached, _ := raceFixture(t)
	cached.Members = plain.Members
	plain.Workers, cached.Workers = 1, 1
	cached.EnableCache(testCacheConfig(), "")

	// Duplicate-heavy: each source image appears three times.
	batch := make([]*tensor.T, 0, 3*len(xs))
	for r := 0; r < 3; r++ {
		batch = append(batch, xs...)
	}
	want := plain.ClassifyBatch(batch)
	got := cached.ClassifyBatch(batch)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("cached batch decisions differ from uncached")
	}
	for i, x := range xs {
		if d := cached.Classify(x); !reflect.DeepEqual(d, want[i]) {
			t.Fatalf("cached Classify frame %d: %+v != %+v", i, d, want[i])
		}
	}
	st := cached.Cache.Stats()
	if st.Coalesced == 0 || st.Hits == 0 {
		t.Fatalf("expected dedup and hits on duplicate-heavy batch: %+v", st)
	}

	// Workers only changes how many members of a stage run at once.
	cached2, _ := raceFixture(t)
	cached2.Members = plain.Members
	cached2.Workers = 3
	cached2.EnableCache(testCacheConfig(), "")
	if got2 := cached2.ClassifyBatch(batch); !reflect.DeepEqual(want, got2) {
		t.Fatal("workers=3 cached batch decisions differ from workers=1 uncached")
	}
}

// TestCachedConcurrentSharedSystem hammers one cache-enabled shared system
// from many goroutines over overlapping inputs — the cached counterpart of
// TestClassifyConcurrentSharedSystem, run under -race in CI. Every decision
// is checked against the uncached reference.
func TestCachedConcurrentSharedSystem(t *testing.T) {
	sys, xs := raceFixture(t)
	ref := make([]Decision, len(xs))
	for i, x := range xs {
		ref[i] = sys.Classify(x)
	}
	sys.EnableCache(cache.Config{MaxBytes: 8 << 10, TTL: 50 * time.Millisecond, Shards: 2}, "")

	const goroutines = 8
	const iters = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if (g+it)%2 == 0 {
					for i, x := range xs {
						if d := sys.Classify(x); !reflect.DeepEqual(d, ref[i]) {
							t.Error("cached Classify diverged under concurrency")
							return
						}
					}
				} else {
					lo := (g + it) % (len(xs) / 2)
					window := xs[lo : lo+len(xs)/2]
					ds := sys.ClassifyBatch(window)
					for i, d := range ds {
						if !reflect.DeepEqual(d, ref[lo+i]) {
							t.Error("cached ClassifyBatch diverged under concurrency")
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConfigFingerprint pins the staleness guarantee at the system level:
// decision-relevant config changes re-key the cache, execution-only knobs
// do not.
func TestConfigFingerprint(t *testing.T) {
	sys, _ := raceFixture(t)
	base := sys.ConfigFingerprint("bits=16")

	mutate := func(f func(*System)) cache.Fingerprint {
		s2, _ := raceFixture(t)
		f(s2)
		return s2.ConfigFingerprint("bits=16")
	}
	if mutate(func(s *System) { s.Th.Conf += 0.1 }) == base {
		t.Error("Thr_Conf change kept the fingerprint")
	}
	if mutate(func(s *System) { s.Th.Freq = 3 }) == base {
		t.Error("Thr_Freq change kept the fingerprint")
	}
	if mutate(func(s *System) { s.Members = s.Members[:3] }) == base {
		t.Error("member-set change kept the fingerprint")
	}
	if mutate(func(s *System) { s.Members[1].Name = "Gamma(3)" }) == base {
		t.Error("variant change kept the fingerprint")
	}
	if mutate(func(s *System) { s.Staged = false }) == base {
		t.Error("staging change kept the fingerprint")
	}
	if sys.ConfigFingerprint("bits=8") == base {
		t.Error("salt change kept the fingerprint")
	}
	if mutate(func(s *System) { s.Workers = 7 }) != base {
		t.Error("execution-only knobs must not re-key the cache")
	}
	// Batch<1 normalizes like the engines do.
	if mutate(func(s *System) { s.Batch = 0 }) != mutate(func(s *System) { s.Batch = 1 }) {
		t.Error("Batch 0 and 1 must share a fingerprint")
	}
}
