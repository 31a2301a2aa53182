package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// This file is the decision engine. Every classification runs it:
// ClassifyBatch over its images, and Classify as a batch of one. Instead of
// walking each image through the committee on its own, the engine runs
// every still-undecided image through one member network at a time —
// nn.Network.InferBatchArena for float64 members, the compiled Net32 for
// reduced-precision ones — so each member's weights are streamed once per
// stage for the whole batch and the fused minibatch kernels do the heavy
// lifting.
//
// RADE staged-activation semantics: all images follow one global stage
// schedule (an initial chunk of max(Thr_Freq, 2) members, then +Batch per
// stage), and each image drops out of the batch at the stage boundary where
// its decision is determined, so its Decision — label, reliability, votes,
// Activated count, Confidence — equals the per-sample staged loop the
// thresholds are profiled with (stagedDecision in recorded.go). Every kernel
// gives an image the same softmax bits at any batch size and slot
// (internal/nn/batch.go), so a Decision is a pure function of the image and
// the configuration: batch size, batch position, Workers and the other
// images in the call never change it. That is what lets the prediction
// cache and the cluster ring key decisions by (image, ConfigFingerprint).

// batchInferFn runs one member on a set of images and returns index-aligned
// probability rows. It must be safe for concurrent calls on distinct
// members.
type batchInferFn func(member int, xs []*tensor.T) [][]float64

// batchStageInferFn is batchInferFn with a per-stage backend override: when
// override is true the member should execute on backend be (falling back to
// its configured path if that variant is not compiled). It is the seam the
// engine is written against: stageInfer runs the real networks, and the
// property tests drive the engine with synthetic softmax tables.
type batchStageInferFn func(member int, be Backend, override bool, xs []*tensor.T) [][]float64

// batchImgState carries one image's staged-activation progress.
type batchImgState struct {
	rows     [][]float64
	votes    map[int]int
	accepted int
}

// workerCount resolves the effective worker-pool size for n units of work.
func (s *System) workerCount(n int) int {
	w := s.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ClassifyBatch classifies every input and returns index-aligned decisions.
// Every still-undecided image runs through each member network in one fused
// minibatch forward pass per stage, which is substantially faster than
// per-image passes because each member's weights stream through the cache
// once per stage for the whole batch. Each decision is identical to
// Classify on the same image, Confidence bits included; an attached Policy
// may reshape the schedule (see policy.go).
func (s *System) ClassifyBatch(xs []*tensor.T) []Decision {
	out, _ := s.ClassifyBatchContext(context.Background(), xs)
	return out
}

// ClassifyBatchContext is ClassifyBatch with cooperative cancellation: when
// the context is done before every item has been classified, the engine stops
// before the next member inference and ctx.Err() is returned with a nil
// slice. With a never-done context it behaves exactly like ClassifyBatch.
func (s *System) ClassifyBatchContext(ctx context.Context, xs []*tensor.T) ([]Decision, error) {
	if len(xs) == 0 {
		return []Decision{}, nil
	}
	if s.Cache != nil {
		return s.classifyBatchCached(ctx, xs)
	}
	ds, _, err := s.runBatch(ctx, xs)
	return ds, err
}

// runBatch runs the engine under the attached policy, bypassing any cache.
// The clean flag reports whether every stage followed the static schedule
// — only clean batches may be stored in the prediction cache.
func (s *System) runBatch(ctx context.Context, xs []*tensor.T) ([]Decision, bool, error) {
	return s.classifyBatchStagedWith(ctx, xs, s.Policy, s.stageInfer)
}

// classifyOne runs one image as a batch of one on the static schedule —
// the Classify path, which ignores any attached policy.
func (s *System) classifyOne(ctx context.Context, x *tensor.T, infer batchStageInferFn) (Decision, error) {
	ds, _, err := s.classifyBatchStagedWith(ctx, []*tensor.T{x}, nil, infer)
	if err != nil {
		return Decision{}, err
	}
	return ds[0], nil
}

// classifyBatchStagedWith is the staged decision engine. Chunk boundaries
// replicate the activation checkpoints of stagedDecision; within a chunk,
// members run over the pending images (concurrently up to the Workers cap),
// and their rows are consumed in member order so vote accounting is
// order-identical to it. With a non-nil policy, each stage boundary is
// offered to the policy, which may deepen/flatten the schedule, halt
// escalation, or override the stage backend; the clean result reports
// whether the batch stayed on the static schedule (a nil policy is always
// clean).
func (s *System) classifyBatchStagedWith(ctx context.Context, xs []*tensor.T, policy StagePolicy, infer batchStageInferFn) ([]Decision, bool, error) {
	n := len(s.Members)
	out := make([]Decision, len(xs))

	st := make([]batchImgState, len(xs))
	pending := make([]int, len(xs))
	for i := range pending {
		st[i].votes = make(map[int]int)
		pending[i] = i
	}
	pendXs := make([]*tensor.T, 0, len(xs))

	batch := s.Batch
	if batch < 1 {
		batch = 1
	}
	decided := func(im *batchImgState, active int) bool {
		_, leaderVotes, unique := modalVote(im.votes)
		if im.accepted > 0 && unique && leaderVotes >= s.Th.Freq {
			return true
		}
		return leaderVotes+(n-active) < s.Th.Freq
	}

	var deadline time.Time
	if policy != nil {
		if dl, ok := ctx.Deadline(); ok {
			deadline = dl
		}
	}

	clean := true
	active := 0
	for stage := 0; len(pending) > 0 && active < n; stage++ {
		end := n
		if s.Staged {
			if active == 0 {
				end = s.Th.Freq
				if end < 2 {
					end = 2
				}
			} else {
				end = active + batch
			}
			if end > n {
				end = n
			}
		}

		var req StageRequest
		var dec StageDecision
		var beSet bool
		var be Backend
		if policy != nil {
			req = StageRequest{
				Stage: stage, Active: active, Members: n,
				Pending: len(pending), BatchSize: len(xs),
				DefaultEnd: end, Deadline: deadline,
			}
			dec = policy.NextStage(req)
			var halt, deviates bool
			end, halt, deviates = resolveStage(req, dec)
			if deviates {
				clean = false
			}
			if halt {
				// Decide every pending image from the rows it already has;
				// Decision.Activated reports the shallower depth.
				for _, i := range pending {
					out[i] = Decide(st[i].rows, s.Th)
				}
				return out, clean, nil
			}
			be, beSet = dec.Backend, dec.BackendSet
		}

		pendXs = pendXs[:0]
		for _, i := range pending {
			pendXs = append(pendXs, xs[i])
		}
		var started time.Time
		if policy != nil {
			started = time.Now()
		}
		chunk, err := s.runMemberRange(ctx, active, end, pendXs, func(m int, xs []*tensor.T) [][]float64 {
			return infer(m, be, beSet, xs)
		})
		if err != nil {
			return nil, false, err
		}
		if policy != nil {
			res := dec
			res.End = end
			policy.ObserveStage(req, res, time.Since(started))
		}
		for _, mrows := range chunk {
			for pi, i := range pending {
				row := mrows[pi]
				im := &st[i]
				im.rows = append(im.rows, row)
				pred := metrics.Argmax(row)
				if row[pred] >= s.Th.Conf {
					im.votes[pred]++
					im.accepted++
				}
			}
		}
		active = end

		keep := pending[:0]
		for _, i := range pending {
			if !s.Staged || active >= n || decided(&st[i], active) {
				out[i] = Decide(st[i].rows, s.Th)
			} else {
				keep = append(keep, i)
			}
		}
		pending = keep
	}
	return out, clean, nil
}

// runMemberRange evaluates members [start, end) on the given images, fanning
// the member-level calls across a bounded pool (Workers cap). The context is
// polled before every member inference; on cancellation the already-started
// members drain and ctx.Err() is returned. Results are index-aligned with the
// member range so the caller can consume them in priority order regardless of
// completion order.
func (s *System) runMemberRange(ctx context.Context, start, end int, xs []*tensor.T, infer batchInferFn) ([][][]float64, error) {
	count := end - start
	rows := make([][][]float64, count)
	workers := s.workerCount(count)
	// A batched member inference already keeps one core busy end to end;
	// oversubscribing CPUs would interleave working sets that are each sized
	// to the cache, so extra Workers beyond the core count only thrash.
	if ncpu := runtime.NumCPU(); workers > ncpu {
		workers = ncpu
	}
	if workers <= 1 || count <= 1 {
		for m := start; m < end; m++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rows[m-start] = infer(m, xs)
		}
		return rows, nil
	}
	var next atomic.Int64
	next.Store(int64(start))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m := int(next.Add(1)) - 1
				if m >= end || ctx.Err() != nil {
					return
				}
				rows[m-start] = infer(m, xs)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rows, nil
}

// batchScratch is one worker's scratch-arena pair. Both arenas are created
// lazily so a pure-f64 system never allocates float32 scratch and a pure
// reduced-precision system never allocates float64 scratch.
type batchScratch struct {
	a   *tensor.Arena
	a32 *tensor.Arena32
}

// scratchPool recycles arena pairs across calls (and Systems) for the life
// of the process, so concurrent member calls never share arenas and a
// steady serving load reuses the same buffers. A per-call pool would build
// fresh arenas for every batch and roughly double peak RSS under load.
var scratchPool = sync.Pool{New: func() any { return &batchScratch{} }}

// stageInfer is the engine's member execution strategy: preprocess each
// image, run the member's network over the whole set — InferBatchArena for
// float64 members, the compiled Net32 for reduced-precision ones — and
// return the probability rows. When override is set the member runs its
// adaptive variant for backend be, compiled by PrepareAdaptive (falling
// back to the configured path when the variant is absent, so a
// half-prepared system degrades to correct-but-static rather than failing).
func (s *System) stageInfer(m int, be Backend, override bool, xs []*tensor.T) [][]float64 {
	sc := scratchPool.Get().(*batchScratch)
	mem := &s.Members[m]
	st := s.verifySink(mem)
	pre := make([]*tensor.T, len(xs))
	for i, x := range xs {
		pre[i] = mem.Pre.Apply(x)
	}
	var rows [][]float64
	if net32 := mem.resolveNet(be, override); net32 != nil {
		if sc.a32 == nil {
			sc.a32 = tensor.NewArena32()
		}
		sc.a32.SetAbft(st)
		rows = net32.InferBatch(pre, sc.a32)
		sc.a32.Reset()
	} else {
		if sc.a == nil {
			sc.a = tensor.NewArena()
		}
		sc.a.SetAbft(st)
		probs := mem.Net.InferBatchArena(pre, sc.a)
		rows = make([][]float64, len(xs))
		for i, p := range probs {
			rows[i] = append([]float64(nil), p.Data...)
		}
		sc.a.Reset()
	}
	if s.finishVerify(st) {
		// One fused call covers the whole pending batch for this member:
		// an uncorrectable fault cannot be attributed to a single image,
		// so every row of the call abstains.
		for _, row := range rows {
			suspectRow(row)
		}
	}
	scratchPool.Put(sc)
	return rows
}
