package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

// TestClassifyContextMatchesClassify checks the context variants are exact
// aliases of the plain calls under a never-done context, on a real (shared
// network) system at one and at several workers.
func TestClassifyContextMatchesClassify(t *testing.T) {
	sys, xs := raceFixture(t)
	for _, workers := range []int{1, 4} {
		sys.Workers = workers
		for i, x := range xs {
			want := sys.Classify(x)
			got, err := sys.ClassifyContext(context.Background(), x)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("workers=%d frame %d: %+v != %+v", workers, i, got, want)
			}
		}
		want := sys.ClassifyBatch(xs)
		got, err := sys.ClassifyBatchContext(context.Background(), xs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: ClassifyBatchContext diverges from ClassifyBatch", workers)
		}
	}
}

// TestClassifyContextCancelled checks a pre-cancelled context aborts
// ClassifyContext before any member runs, at one and at several workers.
func TestClassifyContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	infer := tableStageInfer([][][]float64{{{1, 0}, {1, 0}, {1, 0}}}, func(int, Backend, bool) { ran.Add(1) })
	for _, workers := range []int{1, 3} {
		s := tableSystem(3, Thresholds{Conf: 0.5, Freq: 2}, true, 1, workers)
		if _, err := s.classifyOne(ctx, tensor.New(1), infer); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if _, err := s.ClassifyContext(ctx, tensor.New(1, 2, 2)); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: ClassifyContext err = %v, want context.Canceled", workers, err)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("ran %d members under a cancelled context", n)
	}
}

// TestClassifyParallelDeadlineAborts checks that member inferences that
// outlive the deadline do not let ClassifyContext return a decision: with
// the initial stage's members running concurrently and blocked, the call
// reports context.DeadlineExceeded once they drain, before any later stage.
func TestClassifyParallelDeadlineAborts(t *testing.T) {
	release := make(chan struct{})
	var ran atomic.Int32
	rows := tableStageInfer([][][]float64{{{1, 0}, {0, 1}, {1, 0}}}, nil)
	blocked := func(m int, be Backend, override bool, xs []*tensor.T) [][]float64 {
		ran.Add(1)
		<-release
		return rows(m, be, override, xs)
	}
	s := tableSystem(3, Thresholds{Conf: 0.5, Freq: 2}, true, 1, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := s.classifyOne(ctx, tensor.New(1), blocked)
		done <- err
	}()
	<-ctx.Done()
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ClassifyContext did not honor the deadline")
	}
	// The split initial stage leaves the decision open, but the expired
	// deadline stops the engine before member 2.
	if n := ran.Load(); n != 2 {
		t.Errorf("ran %d members, want the 2 of the initial stage", n)
	}
}

// TestClassifyBatchContextCancelled checks batch classification reports the
// abort instead of returning partial results.
func TestClassifyBatchContextCancelled(t *testing.T) {
	s := tableSystem(2, Thresholds{Conf: 0, Freq: 1}, false, 1, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	xs := []*tensor.T{tensor.New(1), tensor.New(1), tensor.New(1)}
	if out, err := s.ClassifyBatchContext(ctx, xs); !errors.Is(err, context.Canceled) || out != nil {
		t.Errorf("ClassifyBatchContext = %v, %v; want nil, context.Canceled", out, err)
	}
	// Empty input returns successfully even under a cancelled context —
	// there is no work to abort.
	if out, err := s.ClassifyBatchContext(ctx, nil); err != nil || len(out) != 0 {
		t.Errorf("empty batch = %v, %v; want [], nil", out, err)
	}
}
