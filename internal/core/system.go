package core

import (
	"context"
	"fmt"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/preprocess"
	"repro/internal/tensor"
)

// Member is one Layer-1/Layer-2 unit of a live PolygraphMR system: a
// preprocessor feeding a trained CNN.
type Member struct {
	Name string
	Pre  preprocess.Preprocessor
	Net  *nn.Network
	// Backend selects the numeric execution path (f64, f32, int8). It takes
	// effect once System.PrepareBackends compiles the reduced-precision net;
	// until then the member runs the float64 reference path (see backend.go).
	Backend Backend
	// Verified requests ABFT checksum verification of this member's
	// inference kernels (see verify.go). It takes effect once
	// System.PrepareVerified installs the outcome sink; until then the
	// member runs unverified.
	Verified bool

	// net32 is the compiled reduced-precision net (f32 or int8 per Backend),
	// set by PrepareBackends. nil means execute Net in float64.
	net32 *nn.Net32

	// alt holds adaptively compiled backend variants, indexed by Backend and
	// set by PrepareAdaptive, so a StagePolicy can switch a stage between
	// f64/f32/int8 without recompiling. alt[BackendF64] is always nil (the
	// f64 path runs Net directly).
	alt [3]*nn.Net32
}

// resolveNet picks the compiled net for a stage: the member's configured
// path when no override is requested (or the override matches the
// configured backend), otherwise the adaptive variant from PrepareAdaptive.
// A requested variant that was never compiled falls back to the configured
// path — correct, just not cheaper. nil means run Net in float64.
func (m *Member) resolveNet(be Backend, override bool) *nn.Net32 {
	if !override || be == m.Backend {
		return m.net32
	}
	if be == BackendF64 {
		return nil
	}
	if int(be) < len(m.alt) && m.alt[be] != nil {
		return m.alt[be]
	}
	return m.net32
}

// System is a runnable PolygraphMR instance: members in priority order, the
// profiled decision thresholds, and the activation strategy.
//
// A System is safe for concurrent use: Classify and ClassifyBatch may be
// called from many goroutines on a shared instance, because member forward
// passes are read-only (see the internal/nn package contract) and the
// engine keeps all per-call state on the stack. The exported fields are
// configuration and must not be mutated while classifications are in
// flight.
type System struct {
	// Members are in RADE priority order (highest contribution first).
	Members []Member
	// Th are the decision-engine thresholds selected during profiling.
	Th Thresholds
	// Staged enables RADE staged activation (§III-F); when false every
	// member runs on every input.
	Staged bool
	// Batch is the number of members activated together per stage (models
	// the number of available GPUs); minimum 1.
	Batch int
	// Workers caps concurrent member inferences per stage of the engine
	// (Classify and ClassifyBatch alike); 0 or negative selects
	// runtime.NumCPU(). It changes wall-clock time, never a decision.
	Workers int
	// Cache, when non-nil, short-circuits Classify/ClassifyBatch with
	// content-addressed cached decisions, coalesces concurrent identical
	// inputs onto one ensemble pass, and dedups repeats within a batch
	// (see cached.go). Attach with EnableCache after the configuration is
	// final — the cache key is fingerprinted against it.
	Cache *PredictionCache

	// Policy, when non-nil, lets a runtime cascade controller reshape the
	// staged schedule per batch — stage depth, per-stage backend, halting —
	// to trade accuracy headroom for latency (see policy.go and
	// internal/policy). It applies to the batched engine (ClassifyBatch);
	// single-image Classify always runs the static reference schedule. nil
	// keeps the batched engine bit-identical to the static path. Attach
	// before EnableCache so the fingerprint covers the policy descriptor.
	Policy StagePolicy

	// abft aggregates ABFT verification outcomes across every verified
	// member inference; non-nil once PrepareVerified(true) ran (verify.go).
	abft *tensor.AbftStats
}

// NewSystem assembles a system from members and thresholds.
func NewSystem(members []Member, th Thresholds) (*System, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: system needs at least one member")
	}
	if th.Freq < 1 || th.Freq > len(members) {
		return nil, fmt.Errorf("core: Thr_Freq %d out of range for %d members", th.Freq, len(members))
	}
	if th.Conf < 0 || th.Conf > 1 {
		return nil, fmt.Errorf("core: Thr_Conf %v out of [0,1]", th.Conf)
	}
	return &System{Members: members, Th: th, Batch: 1}, nil
}

// Classify runs the system on one input image and returns the decision.
// With Staged set, members are activated in priority order until the
// decision is determined, and Decision.Activated reports how many ran. The
// image runs through the same engine as ClassifyBatch, as a batch of one on
// the static schedule (an attached Policy is ignored), so the decision is
// identical to ClassifyBatch's for the same image.
func (s *System) Classify(x *tensor.T) Decision {
	d, _ := s.ClassifyContext(context.Background(), x)
	return d
}

// ClassifyContext is Classify with cooperative cancellation: the engine
// checks the context before every member inference and returns ctx.Err()
// when the context is done before a decision is reached. With a never-done
// context it behaves exactly like Classify.
func (s *System) ClassifyContext(ctx context.Context, x *tensor.T) (Decision, error) {
	if s.Cache != nil {
		return s.classifyCached(ctx, x)
	}
	return s.classifyOne(ctx, x, s.stageInfer)
}

// BuildSystem constructs a live system for a benchmark from zoo-trained
// variants. Members are ordered by the RADE priority statistic measured on
// the validation split, and thresholds are profiled there too, at a TP
// floor of 100% of the ORG baseline accuracy.
func BuildSystem(zoo *model.Zoo, b model.Benchmark, variants []model.Variant) (*System, error) {
	rec, err := BuildRecorded(zoo, b, variants, model.SplitVal)
	if err != nil {
		return nil, err
	}
	baseAcc, err := zoo.Accuracy(b, model.Variant{}, model.SplitVal)
	if err != nil {
		return nil, err
	}
	th, _, ok := rec.SelectThresholds(baseAcc)
	if !ok {
		// Accept-all fallback: a single agreeing vote suffices.
		th = Thresholds{Conf: 0, Freq: 1}
	}

	order := rec.PriorityOrder()
	members := make([]Member, 0, len(variants))
	for _, idx := range order {
		v := variants[idx]
		pp, err := v.Preprocessor()
		if err != nil {
			return nil, err
		}
		net, err := zoo.Network(b, v)
		if err != nil {
			return nil, err
		}
		members = append(members, Member{Name: v.Key(), Pre: pp, Net: net})
	}
	sys, err := NewSystem(members, th)
	if err != nil {
		return nil, err
	}
	sys.Staged = true
	return sys, nil
}
