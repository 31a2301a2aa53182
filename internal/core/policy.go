package core

import "time"

// This file defines the StagePolicy seam of the batched staged engine: a
// runtime controller (internal/policy) can be attached to a System and
// consulted at every stage boundary of classifyBatchStagedWith, where it may
// reshape the RADE schedule — run more (or all) members in one fused pass,
// halt escalation and decide from the rows gathered so far, or override the
// numeric backend of the stage (int8→f32→f64 precision escalation). A nil
// policy reproduces the static schedule bit-for-bit; a policy that always
// returns the default decision is equally bit-exact (property-tested in
// policy_test.go).
//
// Correctness contract: any batch in which the policy deviated from the
// static schedule is marked "degraded" and is NEVER stored in the
// prediction cache (see cached.go), so cached entries are always the
// reference decisions of the fingerprinted configuration. The policy
// descriptor is additionally folded into the cache fingerprint
// (ConfigFingerprint), so two systems differing only in policy never share
// keys across processes.

// StageRequest describes one stage boundary of the batched staged engine —
// everything a policy needs to price the next stage.
type StageRequest struct {
	// Stage is the 0-based stage index within this batch. Stage 0 is the
	// initial RADE chunk (max(Thr_Freq, 2) members); it always runs.
	Stage int
	// Active is the number of members already activated for this batch.
	Active int
	// Members is the committee size.
	Members int
	// Pending is the number of images still undecided entering this stage.
	Pending int
	// BatchSize is the size of the original batch.
	BatchSize int
	// DefaultEnd is the member boundary the static RADE schedule would
	// activate through for this stage.
	DefaultEnd int
	// Deadline is the batch context's deadline; zero when none is set.
	Deadline time.Time
}

// StageDecision is the policy's answer at a stage boundary.
type StageDecision struct {
	// End requests activating members [Active, End) this stage. Values
	// below Active+1 (including the zero value) select DefaultEnd; values
	// above Members are clamped. Setting End = Members runs the full
	// remaining committee in one fused pass.
	End int
	// Halt stops escalation: every pending image is decided from the member
	// rows it already has (Decision.Activated reports the shallower depth).
	// Ignored at stage 0 — the initial chunk always runs, so the early-stage
	// confidence signal the controller keys on always exists.
	Halt bool
	// Backend, when BackendSet is true, overrides the numeric backend of
	// every member activated this stage. Members whose requested variant was
	// not compiled (see PrepareAdaptive) fall back to their configured path.
	Backend    Backend
	BackendSet bool
}

// StagePolicy is consulted by the batched staged engine at each stage
// boundary. Implementations must be safe for concurrent use: one System may
// classify many batches at once, and NextStage/ObserveStage interleave
// across them.
type StagePolicy interface {
	// NextStage picks the stage plan. Returning the zero StageDecision (or
	// End == DefaultEnd with no overrides) keeps the static schedule.
	NextStage(req StageRequest) StageDecision
	// ObserveStage reports the measured wall-clock time of one executed
	// stage, with the request and the resolved decision it priced. Not
	// called for halted stages (no inference ran).
	ObserveStage(req StageRequest, dec StageDecision, elapsed time.Duration)
	// Descriptor is a stable, human-readable summary of the policy's
	// decision-relevant configuration. It is folded into the prediction-
	// cache fingerprint, so two policies that could ever produce different
	// decisions must return different descriptors.
	Descriptor() string
}

// resolveStage applies a policy decision to the static stage plan: it
// clamps End into [Active+1, Members], suppresses Halt at stage 0, and
// reports whether the resolved plan deviates from the static schedule
// (deviating batches are not cached).
func resolveStage(req StageRequest, dec StageDecision) (end int, halt bool, deviates bool) {
	if dec.Halt && req.Active > 0 {
		return req.Active, true, true
	}
	end = dec.End
	if end < req.Active+1 {
		end = req.DefaultEnd
	}
	if end > req.Members {
		end = req.Members
	}
	return end, false, end != req.DefaultEnd || dec.BackendSet
}
