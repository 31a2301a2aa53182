package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

// funcPolicy adapts closures to StagePolicy for the engine property tests.
type funcPolicy struct {
	next func(StageRequest) StageDecision
	obs  func(StageRequest, StageDecision, time.Duration)
	desc string
}

func (p *funcPolicy) NextStage(req StageRequest) StageDecision { return p.next(req) }
func (p *funcPolicy) ObserveStage(req StageRequest, dec StageDecision, d time.Duration) {
	if p.obs != nil {
		p.obs(req, dec, d)
	}
}
func (p *funcPolicy) Descriptor() string { return p.desc }

// randImageTables builds per-image member softmax tables (tables[i][m]),
// occasionally sharpened so the confidence gate passes — the same workload
// shape the batched-engine equivalence tests use.
func randImageTables(rng *rand.Rand, B, n, classes int) [][][]float64 {
	tables := make([][][]float64, B)
	for i := range tables {
		tables[i] = make([][]float64, n)
		for m := range tables[i] {
			tables[i][m] = randDist(rng, classes)
			if rng.Intn(2) == 0 {
				peak := rng.Intn(classes)
				for j := range tables[i][m] {
					tables[i][m][j] *= 0.2
				}
				tables[i][m][peak] += 0.8
			}
		}
	}
	return tables
}

// tableStageInfer serves precomputed rows through the policy-aware seam,
// optionally recording every (member, backend, override) call.
func tableStageInfer(tables [][][]float64, record func(m int, be Backend, override bool)) batchStageInferFn {
	return func(m int, be Backend, override bool, pend []*tensor.T) [][]float64 {
		if record != nil {
			record(m, be, override)
		}
		rows := make([][]float64, len(pend))
		for i, x := range pend {
			rows[i] = append([]float64(nil), tables[int(x.Data[0])][m]...)
		}
		return rows
	}
}

func indexedInputs(B int) []*tensor.T {
	xs := make([]*tensor.T, B)
	for i := range xs {
		xs[i] = tensor.New(1)
		xs[i].Data[0] = float64(i)
	}
	return xs
}

// TestStagedNilPolicyBitIdentical is the acceptance property of the
// StagePolicy seam: with a nil policy, the staged engine must stay
// bit-identical to the per-image sequential oracle — and must never
// request a backend override — across randomized systems at the batch
// shapes the issue pins (B ∈ {1, 2, 7, 32}).
func TestStagedNilPolicyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8101))
	for _, B := range []int{1, 2, 7, 32} {
		for c := 0; c < 150; c++ {
			n := 2 + rng.Intn(7)
			classes := 2 + rng.Intn(5)
			tables := randImageTables(rng, B, n, classes)
			th := Thresholds{Conf: rng.Float64() * 0.95, Freq: 1 + rng.Intn(n)}
			s := tableSystem(n, th, rng.Intn(4) != 0, 1+rng.Intn(3), 1+rng.Intn(8))
			xs := indexedInputs(B)

			var overrides atomic.Int64
			infer := tableStageInfer(tables, func(_ int, _ Backend, ov bool) {
				if ov {
					overrides.Add(1)
				}
			})
			got, clean, err := s.classifyBatchStagedWith(context.Background(), xs, nil, infer)
			if err != nil {
				t.Fatalf("B=%d case %d: %v", B, c, err)
			}
			if !clean {
				t.Fatalf("B=%d case %d: nil policy marked the batch degraded", B, c)
			}
			if overrides.Load() != 0 {
				t.Fatalf("B=%d case %d: nil policy requested backend overrides", B, c)
			}
			for i := range xs {
				if want := oracle(s, tables[i]); !reflect.DeepEqual(want, got[i]) {
					t.Fatalf("B=%d case %d image %d (n=%d th=%v staged=%v batch=%d):\nsequential %+v\nstaged     %+v",
						B, c, i, n, th, s.Staged, s.Batch, want, got[i])
				}
			}
		}
	}
}

// TestStagedPassthroughPolicyBitIdentical: a policy that always returns the
// default decision (zero value, or an explicit End == DefaultEnd) must be
// exactly as invisible as no policy at all — bit-identical decisions, a
// clean batch, and ObserveStage reporting the resolved default End for
// every executed stage.
func TestStagedPassthroughPolicyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8102))
	passthroughs := []func(StageRequest) StageDecision{
		func(StageRequest) StageDecision { return StageDecision{} },
		func(req StageRequest) StageDecision { return StageDecision{End: req.DefaultEnd} },
	}
	for pi, next := range passthroughs {
		for _, B := range []int{1, 2, 7, 32} {
			for c := 0; c < 60; c++ {
				n := 2 + rng.Intn(7)
				classes := 2 + rng.Intn(5)
				tables := randImageTables(rng, B, n, classes)
				th := Thresholds{Conf: rng.Float64() * 0.95, Freq: 1 + rng.Intn(n)}
				s := tableSystem(n, th, rng.Intn(4) != 0, 1+rng.Intn(3), 1+rng.Intn(8))
				xs := indexedInputs(B)

				var mu sync.Mutex
				var observed int
				pol := &funcPolicy{
					next: next,
					obs: func(req StageRequest, dec StageDecision, _ time.Duration) {
						mu.Lock()
						observed++
						mu.Unlock()
						if dec.End != req.DefaultEnd {
							t.Errorf("pass %d: ObserveStage resolved End %d != DefaultEnd %d", pi, dec.End, req.DefaultEnd)
						}
					},
					desc: "passthrough",
				}
				got, clean, err := s.classifyBatchStagedWith(context.Background(), xs, pol, tableStageInfer(tables, nil))
				if err != nil {
					t.Fatalf("pass %d B=%d case %d: %v", pi, B, c, err)
				}
				if !clean {
					t.Fatalf("pass %d B=%d case %d: passthrough policy marked the batch degraded", pi, B, c)
				}
				if observed == 0 {
					t.Fatalf("pass %d B=%d case %d: ObserveStage never called", pi, B, c)
				}
				for i := range xs {
					want := oracle(s, tables[i])
					if !reflect.DeepEqual(want, got[i]) {
						t.Fatalf("pass %d B=%d case %d image %d:\nsequential  %+v\npassthrough %+v",
							pi, B, c, i, want, got[i])
					}
				}
			}
		}
	}
}

// TestStagedHaltPolicyDecidesFromGatheredRows pins the degraded-halt
// semantics: when the policy halts at stage 1, every image still pending is
// decided from exactly the stage-0 member rows (Activated reports the
// shallower depth), images that already dropped out keep their reference
// decisions, the batch is marked degraded, and the halted stage is never
// observed (no inference ran).
func TestStagedHaltPolicyDecidesFromGatheredRows(t *testing.T) {
	rng := rand.New(rand.NewSource(8103))
	for c := 0; c < 300; c++ {
		n := 3 + rng.Intn(6)
		classes := 2 + rng.Intn(5)
		B := 1 + rng.Intn(16)
		tables := randImageTables(rng, B, n, classes)
		th := Thresholds{Conf: rng.Float64() * 0.95, Freq: 1 + rng.Intn(n)}
		s := tableSystem(n, th, true, 1+rng.Intn(3), 1+rng.Intn(4))
		xs := indexedInputs(B)

		// The static stage-0 chunk: max(Thr_Freq, 2) clamped to the committee.
		end0 := th.Freq
		if end0 < 2 {
			end0 = 2
		}
		if end0 > n {
			end0 = n
		}

		var haltedObserved atomic.Int64
		pol := &funcPolicy{
			next: func(req StageRequest) StageDecision {
				if req.Stage >= 1 {
					return StageDecision{Halt: true}
				}
				return StageDecision{}
			},
			obs: func(req StageRequest, _ StageDecision, _ time.Duration) {
				if req.Stage >= 1 {
					haltedObserved.Add(1)
				}
			},
			desc: "halt@1",
		}
		got, clean, err := s.classifyBatchStagedWith(context.Background(), xs, pol, tableStageInfer(tables, nil))
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if haltedObserved.Load() != 0 {
			t.Fatalf("case %d: ObserveStage called for a halted stage", c)
		}
		anyPending := false
		for i := range xs {
			want := oracle(s, tables[i])
			if want.Activated <= end0 {
				// Decided at (or before) the stage-0 boundary: the halt never
				// touched this image.
				if !reflect.DeepEqual(want, got[i]) {
					t.Fatalf("case %d image %d decided at stage 0:\nsequential %+v\nhalted     %+v", c, i, want, got[i])
				}
				continue
			}
			anyPending = true
			// Still pending at the halt: decided from the stage-0 rows only.
			rows := make([][]float64, end0)
			for m := 0; m < end0; m++ {
				rows[m] = append([]float64(nil), tables[i][m]...)
			}
			shallow := Decide(rows, th)
			if !reflect.DeepEqual(shallow, got[i]) {
				t.Fatalf("case %d image %d halted:\nDecide(rows[:%d]) %+v\nengine            %+v", c, i, end0, shallow, got[i])
			}
			if got[i].Activated != end0 || got[i].Activated >= want.Activated {
				t.Fatalf("case %d image %d: halted Activated = %d; want %d (< sequential %d)",
					c, i, got[i].Activated, end0, want.Activated)
			}
		}
		if anyPending && clean {
			t.Fatalf("case %d: a halt reshaped the batch but it was marked clean", c)
		}
	}
}

// TestStagedHaltAtStageZeroSuppressed: stage 0 always runs — a policy that
// asks to halt before any member has produced a row is overruled, the
// batch follows the static schedule, and (with no other deviation) stays
// clean and bit-identical.
func TestStagedHaltAtStageZeroSuppressed(t *testing.T) {
	rng := rand.New(rand.NewSource(8104))
	for c := 0; c < 100; c++ {
		n := 2 + rng.Intn(6)
		classes := 2 + rng.Intn(4)
		B := 1 + rng.Intn(8)
		tables := randImageTables(rng, B, n, classes)
		th := Thresholds{Conf: rng.Float64() * 0.9, Freq: 1 + rng.Intn(n)}
		s := tableSystem(n, th, true, 1+rng.Intn(3), 1)
		xs := indexedInputs(B)

		pol := &funcPolicy{
			next: func(req StageRequest) StageDecision {
				if req.Stage == 0 {
					return StageDecision{Halt: true}
				}
				return StageDecision{}
			},
			desc: "halt@0",
		}
		got, clean, err := s.classifyBatchStagedWith(context.Background(), xs, pol, tableStageInfer(tables, nil))
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if !clean {
			t.Fatalf("case %d: suppressed stage-0 halt still degraded the batch", c)
		}
		for i := range xs {
			want := oracle(s, tables[i])
			if !reflect.DeepEqual(want, got[i]) {
				t.Fatalf("case %d image %d: stage-0 halt changed the decision:\n%+v\n%+v", c, i, want, got[i])
			}
		}
	}
}

// TestStagedBackendOverrideReachesInfer: a per-stage backend override must
// reach the inference seam for exactly the members of that stage, and must
// mark the batch degraded even when the schedule shape is untouched.
func TestStagedBackendOverrideReachesInfer(t *testing.T) {
	n, B := 5, 6
	// Every member votes confidently for its own label: the vote is never
	// unique with enough support, so no image decides early and every stage
	// of the schedule executes — members 0-4 across stages 0-3.
	tables := make([][][]float64, B)
	for i := range tables {
		tables[i] = make([][]float64, n)
		for m := range tables[i] {
			row := make([]float64, n)
			for j := range row {
				row[j] = 0.05
			}
			row[m] = 0.8
			tables[i][m] = row
		}
	}
	th := Thresholds{Conf: 0.5, Freq: 2}
	s := tableSystem(n, th, true, 1, 1)
	xs := indexedInputs(B)

	type call struct {
		m        int
		be       Backend
		override bool
	}
	var mu sync.Mutex
	var calls []call
	infer := tableStageInfer(tables, func(m int, be Backend, ov bool) {
		mu.Lock()
		calls = append(calls, call{m, be, ov})
		mu.Unlock()
	})
	pol := &funcPolicy{
		next: func(req StageRequest) StageDecision {
			if req.Stage == 1 {
				return StageDecision{Backend: BackendInt8, BackendSet: true}
			}
			return StageDecision{}
		},
		desc: "int8@1",
	}
	_, clean, err := s.classifyBatchStagedWith(context.Background(), xs, pol, infer)
	if err != nil {
		t.Fatal(err)
	}
	if clean {
		t.Fatal("backend override left the batch marked clean")
	}
	// Stage 0 covers members [0, 2) with no override; stage 1 covers member
	// 2 on int8; later stages are override-free again.
	for _, cl := range calls {
		wantOverride := cl.m == 2
		if cl.override != wantOverride {
			t.Errorf("member %d: override = %v; want %v", cl.m, cl.override, wantOverride)
		}
		if wantOverride && cl.be != BackendInt8 {
			t.Errorf("member %d: backend = %v; want int8", cl.m, cl.be)
		}
	}
	if len(calls) != n {
		t.Errorf("ran %d member calls; want %d (full schedule)", len(calls), n)
	}
}

// TestStagedFusedFullPass: End = Members at stage 0 runs the whole committee
// in one pass — every image gets all rows, so decisions equal the unstaged
// full-committee reference, and the batch is degraded whenever that deepens
// the static schedule.
func TestStagedFusedFullPass(t *testing.T) {
	rng := rand.New(rand.NewSource(8106))
	for c := 0; c < 200; c++ {
		n := 3 + rng.Intn(6)
		classes := 2 + rng.Intn(5)
		B := 1 + rng.Intn(12)
		tables := randImageTables(rng, B, n, classes)
		th := Thresholds{Conf: rng.Float64() * 0.95, Freq: 1 + rng.Intn(n)}
		s := tableSystem(n, th, true, 1+rng.Intn(3), 1+rng.Intn(4))
		xs := indexedInputs(B)

		pol := &funcPolicy{
			next: func(req StageRequest) StageDecision { return StageDecision{End: req.Members} },
			desc: "fused",
		}
		got, clean, err := s.classifyBatchStagedWith(context.Background(), xs, pol, tableStageInfer(tables, nil))
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		full := tableSystem(n, th, false, 1, 1)
		deepened := false
		for i := range xs {
			want := oracle(full, tables[i])
			if !reflect.DeepEqual(want, got[i]) {
				t.Fatalf("case %d image %d:\nfull committee %+v\nfused stage    %+v", c, i, want, got[i])
			}
			if got[i].Activated != n {
				t.Fatalf("case %d image %d: Activated = %d; want %d", c, i, got[i].Activated, n)
			}
			staticRef := oracle(s, tables[i])
			if staticRef.Activated < n {
				deepened = true
			}
		}
		if deepened && clean {
			t.Fatalf("case %d: fused pass deepened the schedule but stayed clean", c)
		}
	}
}

// TestResolveStage pins the decision-resolution contract: End clamping,
// DefaultEnd fallback, stage-0 halt suppression, and the deviates flag that
// gates cache storage.
func TestResolveStage(t *testing.T) {
	req := StageRequest{Stage: 1, Active: 2, Members: 5, DefaultEnd: 3}
	cases := []struct {
		name     string
		req      StageRequest
		dec      StageDecision
		end      int
		halt     bool
		deviates bool
	}{
		{"zero decision keeps default", req, StageDecision{}, 3, false, false},
		{"explicit default", req, StageDecision{End: 3}, 3, false, false},
		{"End below Active+1 falls back", req, StageDecision{End: 2}, 3, false, false},
		{"deepen", req, StageDecision{End: 5}, 5, false, true},
		{"clamp above Members", req, StageDecision{End: 99}, 5, false, true},
		{"clamp landing on default is clean", req, StageDecision{End: 99, Halt: false},
			5, false, true},
		{"halt mid-schedule", req, StageDecision{Halt: true}, 2, true, true},
		{"halt at stage 0 suppressed",
			StageRequest{Stage: 0, Active: 0, Members: 5, DefaultEnd: 2},
			StageDecision{Halt: true}, 2, false, false},
		{"backend override alone deviates", req,
			StageDecision{Backend: BackendF32, BackendSet: true}, 3, false, true},
	}
	for _, tc := range cases {
		end, halt, dev := resolveStage(tc.req, tc.dec)
		if end != tc.end || halt != tc.halt || dev != tc.deviates {
			t.Errorf("%s: resolveStage = (%d, %v, %v); want (%d, %v, %v)",
				tc.name, end, halt, dev, tc.end, tc.halt, tc.deviates)
		}
	}
	// A clamp that lands exactly on the default schedule is not a deviation.
	full := StageRequest{Stage: 1, Active: 4, Members: 5, DefaultEnd: 5}
	if _, _, dev := resolveStage(full, StageDecision{End: 99}); dev {
		t.Error("clamped End equal to DefaultEnd must not deviate")
	}
}

// TestDegradedBatchNotCached is the cache-correctness half of the policy
// contract: a batch the policy degraded is served but never stored, so the
// prediction cache only ever holds reference decisions. The seam-level
// check drives classifyBatchCachedWith directly; the end-to-end check runs
// a real system with a halting policy attached.
func TestDegradedBatchNotCached(t *testing.T) {
	rng := rand.New(rand.NewSource(8107))
	tables := randImageTables(rng, 6, 4, 4)
	th := Thresholds{Conf: 0.1, Freq: 3}
	s := tableSystem(4, th, true, 1, 1)
	s.EnableCache(testCacheConfig(), "")
	xs := indexedInputs(6)

	haltPol := &funcPolicy{
		next: func(req StageRequest) StageDecision {
			if req.Stage >= 1 {
				return StageDecision{Halt: true}
			}
			return StageDecision{}
		},
		desc: "halt@1",
	}
	var computes atomic.Int64
	runBatch := func(ctx context.Context, batch []*tensor.T) ([]Decision, bool, error) {
		computes.Add(int64(len(batch)))
		return s.classifyBatchStagedWith(ctx, batch, haltPol, tableStageInfer(tables, nil))
	}
	one := tableStageInfer(tables, func(m int, _ Backend, _ bool) {
		if m == 0 {
			computes.Add(1)
		}
	})

	first, err := s.classifyBatchCachedWith(context.Background(), xs, runBatch, one)
	if err != nil {
		t.Fatal(err)
	}
	if computes.Load() == 0 {
		t.Fatal("degraded batch was not computed")
	}
	if st := s.Cache.Stats(); st.Entries != 0 {
		t.Fatalf("degraded batch stored %d cache entries", st.Entries)
	}
	// A second pass must recompute — nothing was stored.
	computes.Store(0)
	second, err := s.classifyBatchCachedWith(context.Background(), xs, runBatch, one)
	if err != nil {
		t.Fatal(err)
	}
	if computes.Load() == 0 {
		t.Fatal("second pass over a degraded batch was served from the cache")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("deterministic degraded batch diverged across passes")
	}

	// Clean batches through the same seam do get stored.
	cleanBatch := func(ctx context.Context, batch []*tensor.T) ([]Decision, bool, error) {
		computes.Add(int64(len(batch)))
		return s.classifyBatchStagedWith(ctx, batch, nil, tableStageInfer(tables, nil))
	}
	if _, err := s.classifyBatchCachedWith(context.Background(), xs, cleanBatch, one); err != nil {
		t.Fatal(err)
	}
	if st := s.Cache.Stats(); st.Entries != len(xs) {
		t.Fatalf("clean batch stored %d entries; want %d", st.Entries, len(xs))
	}

	// End to end on real networks: System.ClassifyBatch with an attached
	// halting policy and an enabled cache must leave the store empty.
	sys, inputs := raceFixture(t)
	sys.Policy = haltPol
	sys.EnableCache(testCacheConfig(), "")
	sys.ClassifyBatch(inputs)
	if st := sys.Cache.Stats(); st.Entries != 0 {
		t.Fatalf("real degraded batch stored %d entries", st.Entries)
	}
}

// countingPolicy is a passthrough StagePolicy with mutable atomic state —
// the shape a live controller has — used by the -race hammer.
type countingPolicy struct {
	next, observed atomic.Int64
}

func (p *countingPolicy) NextStage(StageRequest) StageDecision {
	p.next.Add(1)
	return StageDecision{}
}
func (p *countingPolicy) ObserveStage(StageRequest, StageDecision, time.Duration) {
	p.observed.Add(1)
}
func (p *countingPolicy) Descriptor() string { return "counting" }

// TestStagedPolicyConcurrentSharedSystem is the satellite -race hammer at
// the engine level: one shared real System with a mutable passthrough
// policy attached (so NextStage/ObserveStage interleave across concurrent
// batches), plus a second system sharing the same member networks under a
// deviating halt policy. Passthrough decisions are checked against the
// policy-free reference on every call.
func TestStagedPolicyConcurrentSharedSystem(t *testing.T) {
	ref, xs := raceFixture(t)
	want := make([]Decision, len(xs))
	for i, x := range xs {
		want[i] = ref.Classify(x)
	}

	shared, _ := raceFixture(t)
	shared.Members = ref.Members
	shared.Workers = 3
	pol := &countingPolicy{}
	shared.Policy = pol

	degraded, _ := raceFixture(t)
	degraded.Members = ref.Members
	degraded.Workers = 2
	degraded.Policy = &funcPolicy{
		next: func(req StageRequest) StageDecision {
			if req.Stage >= 1 {
				return StageDecision{Halt: true}
			}
			return StageDecision{}
		},
		desc: "halt@1",
	}

	const goroutines = 8
	const iters = 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				lo := (g + it) % (len(xs) / 2)
				window := xs[lo : lo+len(xs)/2]
				if (g+it)%2 == 0 {
					ds := shared.ClassifyBatch(window)
					for i, d := range ds {
						if !reflect.DeepEqual(d, want[lo+i]) {
							t.Error("passthrough-policy decision diverged under concurrency")
							return
						}
					}
				} else {
					ds := degraded.ClassifyBatch(window)
					for i, d := range ds {
						if d.Activated < 2 || d.Activated > want[lo+i].Activated {
							t.Errorf("halted decision Activated = %d (reference %d)", d.Activated, want[lo+i].Activated)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if pol.next.Load() == 0 || pol.observed.Load() == 0 {
		t.Errorf("policy not consulted under load: next=%d observed=%d", pol.next.Load(), pol.observed.Load())
	}
}
