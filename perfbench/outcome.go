package main

import (
	"encoding/json"
	"net/http"

	polygraph "repro"
)

// outcome classifies one attempted image.
type outcome int

const (
	outcomeOK        outcome = iota
	outcomeRejected          // HTTP 429: shed by admission control
	outcomeError             // any other non-200 status, an unreadable body, or an error returned by the call
	outcomeTransport         // the request never got a response
	outcomeMismatch          // answered, but the decision differs from the reference
)

// matches reports whether got carries the reference decision: label,
// reliability verdict, agreement and activation count must be equal.
// drift reports a match whose Confidence still differs from the reference,
// which batch-dependent arithmetic produces in the low bits.
func matches(got, ref polygraph.Prediction) (match, drift bool) {
	match = got.Label == ref.Label && got.Reliable == ref.Reliable &&
		got.Agreement == ref.Agreement && got.Activated == ref.Activated
	return match, match && got.Confidence != ref.Confidence
}

// predictionBody is the single-image response of POST /v1/classify.
type predictionBody struct {
	Prediction *struct {
		Label      int     `json:"label"`
		Reliable   bool    `json:"reliable"`
		Confidence float64 `json:"confidence"`
		Activated  int     `json:"activated"`
		Agreement  int     `json:"agreement"`
	} `json:"prediction"`
}

// verdict is the judged fate of one attempted image.
type verdict struct {
	outcome outcome
	// answered reports that the system returned pred, whether or not it
	// matched the reference.
	answered bool
	pred     polygraph.Prediction
	// drift marks a matching answer whose Confidence differs from the
	// reference.
	drift bool
}

// judgeHTTP judges one HTTP exchange for a single-image request.
func judgeHTTP(status int, body []byte, err error, ref polygraph.Prediction) verdict {
	switch {
	case err != nil:
		return verdict{outcome: outcomeTransport}
	case status == http.StatusTooManyRequests:
		return verdict{outcome: outcomeRejected}
	case status != http.StatusOK:
		return verdict{outcome: outcomeError}
	}
	var pb predictionBody
	if json.Unmarshal(body, &pb) != nil || pb.Prediction == nil {
		return verdict{outcome: outcomeError}
	}
	return judgePrediction(polygraph.Prediction{
		Label: pb.Prediction.Label, Reliable: pb.Prediction.Reliable,
		Confidence: pb.Prediction.Confidence, Activated: pb.Prediction.Activated,
		Agreement: pb.Prediction.Agreement,
	}, ref)
}

// judgePrediction judges one answered prediction against its reference.
func judgePrediction(got, ref polygraph.Prediction) verdict {
	match, drift := matches(got, ref)
	if !match {
		return verdict{outcome: outcomeMismatch, answered: true, pred: got}
	}
	return verdict{outcome: outcomeOK, answered: true, pred: got, drift: drift}
}

// tally counts the outcomes of one timed phase. Every attempted image is
// either ok or one of the failure kinds; TP and FP count answered
// predictions against the synthetic ground-truth labels (TP: correct and
// reliable; FP: wrong but reliable).
type tally struct {
	attempted, ok                         int
	rejected, errors, transport, mismatch int
	drift                                 int
	tp, fp                                int
	activated, escalated                  int
}

// add records one attempted image whose ground-truth label is label.
// initialStage is the number of members the first RADE stage activates,
// beyond which a decision counts as escalated.
func (t *tally) add(v verdict, label, initialStage int) {
	t.attempted++
	switch v.outcome {
	case outcomeOK:
		t.ok++
	case outcomeRejected:
		t.rejected++
	case outcomeError:
		t.errors++
	case outcomeTransport:
		t.transport++
	case outcomeMismatch:
		t.mismatch++
	}
	if v.drift {
		t.drift++
	}
	if !v.answered {
		return
	}
	pred := v.pred
	if pred.Reliable {
		if pred.Label == label {
			t.tp++
		} else {
			t.fp++
		}
	}
	t.activated += pred.Activated
	if pred.Activated > initialStage {
		t.escalated++
	}
}

// failed counts every attempted image that did not end in a matching
// answer.
func (t *tally) failed() int { return t.attempted - t.ok }

// answered counts images the system returned a prediction for.
func (t *tally) answered() int { return t.ok + t.mismatch }

// merge adds u's counts into t.
func (t *tally) merge(u tally) {
	t.attempted += u.attempted
	t.ok += u.ok
	t.rejected += u.rejected
	t.errors += u.errors
	t.transport += u.transport
	t.mismatch += u.mismatch
	t.drift += u.drift
	t.tp += u.tp
	t.fp += u.fp
	t.activated += u.activated
	t.escalated += u.escalated
}
