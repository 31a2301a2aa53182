package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	polygraph "repro"
)

func TestFailureCounting(t *testing.T) {
	ref := polygraph.Prediction{Label: 3, Reliable: true, Confidence: 0.9, Activated: 2, Agreement: 2}
	ok := []byte(`{"prediction":{"label":3,"reliable":true,"confidence":0.9,"activated":2,"agreement":2},"elapsed_ms":1}`)
	drifted := []byte(`{"prediction":{"label":3,"reliable":true,"confidence":0.9000000000000001,"activated":2,"agreement":2}}`)
	wrongVotes := []byte(`{"prediction":{"label":3,"reliable":true,"confidence":0.9,"activated":3,"agreement":2}}`)
	cases := []struct {
		name   string
		status int
		body   []byte
		err    error
		want   outcome
	}{
		{"match", http.StatusOK, ok, nil, outcomeOK},
		{"confidence drift only", http.StatusOK, drifted, nil, outcomeOK},
		{"shed", http.StatusTooManyRequests, []byte(`{"error":"admission queue full"}`), nil, outcomeRejected},
		{"server error", http.StatusInternalServerError, []byte(`{"error":"x"}`), nil, outcomeError},
		{"unreadable body", http.StatusOK, []byte(`{"prediction":`), nil, outcomeError},
		{"transport", 0, nil, errors.New("connection refused"), outcomeTransport},
		{"mismatch", http.StatusOK, wrongVotes, nil, outcomeMismatch},
	}
	var tl tally
	for _, c := range cases {
		v := judgeHTTP(c.status, c.body, c.err, ref)
		if v.outcome != c.want {
			t.Errorf("%s: outcome %d, want %d", c.name, v.outcome, c.want)
		}
		tl.add(v, 3, 2)
	}
	if tl.attempted != len(cases) || tl.ok != 2 || tl.failed() != 5 {
		t.Fatalf("attempted %d ok %d failed %d, want %d, 2, 5", tl.attempted, tl.ok, tl.failed(), len(cases))
	}
	if tl.rejected != 1 || tl.errors != 2 || tl.transport != 1 || tl.mismatch != 1 || tl.drift != 1 {
		t.Fatalf("failure kinds %+v", tl)
	}
	// Answered predictions (two matches and the mismatch) are all correct
	// and reliable; the mismatch ran a third member past the first stage.
	if tl.answered() != 3 || tl.tp != 3 || tl.fp != 0 || tl.escalated != 1 {
		t.Fatalf("answered %d tp %d fp %d escalated %d, want 3, 3, 0, 1", tl.answered(), tl.tp, tl.fp, tl.escalated)
	}
}

func TestBatchErrorFailsEveryImage(t *testing.T) {
	var tl tally
	for i := 0; i < batchSize; i++ {
		tl.add(verdict{outcome: outcomeError}, 0, 2)
	}
	wrong := polygraph.Prediction{Label: 1, Reliable: true, Activated: 2, Agreement: 2}
	tl.add(judgePrediction(wrong, wrong), 0, 2)
	if tl.failed() != batchSize || tl.ok != 1 || tl.fp != 1 || tl.tp != 0 {
		t.Fatalf("failed %d ok %d fp %d tp %d", tl.failed(), tl.ok, tl.fp, tl.tp)
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	ref := polygraph.Prediction{Label: 1, Reliable: true, Confidence: 0.5, Activated: 2, Agreement: 2}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Header.Get(reqIDHeader) {
		case "0":
			http.Error(w, `{"error":"admission queue full"}`, http.StatusTooManyRequests)
		case "1":
			fmt.Fprint(w, `{"prediction":{"label":2,"reliable":true,"confidence":0.5,"activated":2,"agreement":2}}`)
		default:
			fmt.Fprint(w, `{"prediction":{"label":1,"reliable":true,"confidence":0.5,"activated":2,"agreement":2}}`)
		}
	}))
	defer srv.Close()
	in := &inputs{}
	for i := 0; i < 4; i++ {
		in.add(polygraph.Image{}, 1)
		in.refs = append(in.refs, ref)
		in.bodies = append(in.bodies, []byte(`{}`))
	}
	seq, due := []int{0, 1, 2, 3}, make([]time.Duration, 4)

	ph := openLoop(srv.URL, in, seq, due, 2)
	tl := ph.tally
	if tl.attempted != 4 || tl.ok != 2 || tl.rejected != 1 || tl.mismatch != 1 || tl.failed() != 2 {
		t.Fatalf("tally %+v: want 4 attempted, 2 ok, 1 refused, 1 mismatched", tl)
	}
	if len(ph.latencies) != 3 || len(ph.lags) != 4 {
		t.Fatalf("%d latencies and %d lags, want one latency per answer and one lag per request", len(ph.latencies), len(ph.lags))
	}

	// A server that refuses connections fails every request in transport.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ln.Close()
	if tl := openLoop(url, in, seq, due, 2).tally; tl.transport != 4 || tl.failed() != 4 {
		t.Fatalf("tally %+v against a closed port: want 4 transport failures", tl)
	}
}
