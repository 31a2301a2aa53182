package core

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
)

// Recorded holds the member softmax outputs over a dataset split, the
// offline representation on which threshold profiling, Pareto construction,
// greedy design and RADE analysis all operate. Running each member once and
// post-processing recorded outputs is what makes the paper's offline
// profiling stage cheap ("negligible overhead compared to the actual
// training", §III-E).
type Recorded struct {
	// Probs is indexed [member][sample][class].
	Probs [][][]float64
	// Labels are the ground-truth labels, aligned with the sample axis.
	Labels []int
}

// NewRecorded validates shapes and builds a Recorded.
func NewRecorded(probs [][][]float64, labels []int) (*Recorded, error) {
	if len(probs) == 0 {
		return nil, fmt.Errorf("core: no members")
	}
	for m, rows := range probs {
		if len(rows) != len(labels) {
			return nil, fmt.Errorf("core: member %d has %d rows, want %d", m, len(rows), len(labels))
		}
	}
	return &Recorded{Probs: probs, Labels: labels}, nil
}

// Members returns the number of member networks.
func (r *Recorded) Members() int { return len(r.Probs) }

// Samples returns the number of recorded samples.
func (r *Recorded) Samples() int { return len(r.Labels) }

// Subset returns a Recorded over the given member indices (sharing data).
func (r *Recorded) Subset(members []int) *Recorded {
	probs := make([][][]float64, len(members))
	for i, m := range members {
		probs[i] = r.Probs[m]
	}
	return &Recorded{Probs: probs, Labels: r.Labels}
}

// Outcomes evaluates the decision engine on every sample. It uses a
// compiled prediction cache with semantics identical to per-sample Decide
// calls (verified by TestEvalOutcomesMatchesDecide).
func (r *Recorded) Outcomes(th Thresholds) []metrics.Outcome {
	return r.evalOutcomes(th)
}

// Evaluate returns the TP/FP/TN/FN rates of the decision engine.
func (r *Recorded) Evaluate(th Thresholds) metrics.Rates {
	return metrics.Tally(r.Outcomes(th), r.Labels)
}

// MemberPreds returns each member's top-1 predictions, [member][sample].
func (r *Recorded) MemberPreds() [][]int {
	preds := make([][]int, r.Members())
	for m, rows := range r.Probs {
		preds[m] = make([]int, len(rows))
		for s, row := range rows {
			preds[m][s] = metrics.Argmax(row)
		}
	}
	return preds
}

// MemberAccuracy returns each member's standalone top-1 accuracy.
func (r *Recorded) MemberAccuracy() []float64 {
	accs := make([]float64, r.Members())
	for m, rows := range r.Probs {
		accs[m] = metrics.Accuracy(rows, r.Labels)
	}
	return accs
}

// SweepPoints evaluates the engine over the cross-product of confidence and
// frequency thresholds and returns one (TP, FP) point per setting, with the
// Thresholds stored in Meta. This is the paper's offline value-space sweep.
func (r *Recorded) SweepPoints(confs []float64, freqs []int) []metrics.Point {
	pts := make([]metrics.Point, 0, len(confs)*len(freqs))
	for _, c := range confs {
		for _, f := range freqs {
			th := Thresholds{Conf: c, Freq: f}
			rates := r.Evaluate(th)
			pts = append(pts, metrics.Point{TP: rates.TP, FP: rates.FP, Meta: th})
		}
	}
	return pts
}

// DefaultConfGrid is the confidence-threshold grid used by profiling sweeps.
func DefaultConfGrid() []float64 {
	var cs []float64
	for c := 0.0; c < 0.96; c += 0.05 {
		cs = append(cs, c)
	}
	return cs
}

// FreqGrid returns 1..n.
func FreqGrid(n int) []int {
	fs := make([]int, n)
	for i := range fs {
		fs[i] = i + 1
	}
	return fs
}

// Pareto sweeps the default grids and returns the (TP, FP) Pareto frontier.
func (r *Recorded) Pareto() []metrics.Point {
	return metrics.ParetoFrontier(r.SweepPoints(DefaultConfGrid(), FreqGrid(r.Members())))
}

// SelectThresholds picks, from the Pareto frontier, the thresholds with
// minimal FP among design points whose TP is at least tpFloor — the paper's
// user-demand selection with "no desirable correct predictions lost". It
// reports ok=false when no point meets the floor (the caller then falls
// back to the trivial accept-all policy).
func (r *Recorded) SelectThresholds(tpFloor float64) (Thresholds, metrics.Rates, bool) {
	best, ok := metrics.BestUnderTPFloor(r.Pareto(), tpFloor)
	if !ok {
		return Thresholds{}, metrics.Rates{}, false
	}
	th := best.Meta.(Thresholds)
	return th, r.Evaluate(th), true
}

// PriorityOrder returns member indices ordered by descending standalone
// correct-prediction frequency — the paper's RADE contribution statistic
// (§III-F). Ties resolve to the lower index.
func (r *Recorded) PriorityOrder() []int {
	accs := r.MemberAccuracy()
	order := make([]int, len(accs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return accs[order[a]] > accs[order[b]] })
	return order
}

// StagedResult is the outcome of a RADE staged evaluation.
type StagedResult struct {
	Rates metrics.Rates
	// Activations[s] is the number of members activated for sample s.
	Activations []int
	// ActivationHist[k] is the fraction of samples that activated exactly k
	// members (index 0 unused).
	ActivationHist []float64
}

// MeanActivated returns the average number of members activated per sample.
func (sr StagedResult) MeanActivated() float64 {
	if len(sr.Activations) == 0 {
		return 0
	}
	total := 0
	for _, a := range sr.Activations {
		total += a
	}
	return float64(total) / float64(len(sr.Activations))
}

// Staged evaluates the decision engine with RADE staged activation
// (§III-F): the top Thr_Freq members (by the given priority order) are
// activated first; further members are activated batch at a time until the
// decision is determined. Early exit happens when the leading label has
// reached Thr_Freq votes (reliable) or when no label can reach it with the
// votes remaining (unreliable).
//
// batch models the available parallel hardware: 1 for a single GPU
// (sequential activation), 2 for the two-GPU DRIVE-AGX-style setup.
func (r *Recorded) Staged(th Thresholds, order []int, batch int) StagedResult {
	if order == nil {
		order = r.PriorityOrder()
	}
	n := r.Members()
	outcomes := make([]metrics.Outcome, r.Samples())
	activations := make([]int, r.Samples())

	rows := make([][]float64, n)
	for s := 0; s < r.Samples(); s++ {
		for i, m := range order {
			rows[i] = r.Probs[m][s]
		}
		d := stagedDecision(rows, th, batch)
		outcomes[s] = d.Outcome()
		activations[s] = d.Activated
	}

	hist := make([]float64, n+1)
	for _, a := range activations {
		hist[a]++
	}
	for i := range hist {
		hist[i] /= float64(len(activations))
	}
	return StagedResult{
		Rates:          metrics.Tally(outcomes, r.Labels),
		Activations:    activations,
		ActivationHist: hist,
	}
}

// stagedDecision is the RADE staged loop for one sample: rows are the
// members' softmax rows in activation order. The top Thr_Freq members (but
// never fewer than two) are activated first; further members are activated
// batch at a time until the decision is determined, and the decision is
// taken over the activated rows only. It is the reference the staged batch
// engine (classifyBatchStagedWith) reproduces exactly, image by image.
func stagedDecision(rows [][]float64, th Thresholds, batch int) Decision {
	if batch < 1 {
		batch = 1
	}
	n := len(rows)
	votes := make(map[int]int)
	accepted := 0
	active := 0

	// Initial stage: the top Thr_Freq members, but never fewer than two —
	// a single-member stage would accept its vote with no redundancy at
	// all, and the paper's Fig. 12 activation histogram accordingly starts
	// at two networks.
	initial := max(th.Freq, 2)
	activate := func(k int) {
		for ; active < k && active < n; active++ {
			row := rows[active]
			pred := metrics.Argmax(row)
			if row[pred] >= th.Conf {
				votes[pred]++
				accepted++
			}
		}
	}
	activate(initial)

	decided := func() bool {
		_, leaderVotes, unique := modalVote(votes)
		if accepted > 0 && unique && leaderVotes >= th.Freq {
			return true // reliable now
		}
		// Unreliable early exit: no label can reach Thr_Freq even if every
		// remaining member votes for it.
		return leaderVotes+(n-active) < th.Freq
	}
	for !decided() && active < n {
		activate(active + batch)
	}
	return Decide(rows[:active], th)
}
