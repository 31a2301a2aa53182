package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	polygraph "repro"
	"repro/internal/server"
)

// windowLen is the length of the windows a timed phase is cut into.
// Throughput and CPU cost are medians over the windows, so a burst of
// contention from outside the process moves only the windows it falls in.
const windowLen = time.Second

// window is one slice of a timed phase.
type window struct {
	ok  int // images answered correctly in the window
	cpu time.Duration
	dur time.Duration
}

// meter cuts a timed phase into windows. ok is advanced by whichever
// goroutine judges an answer; tick is called by the loop driving the phase.
type meter struct {
	ok      atomic.Int64
	start   time.Time
	cpu     time.Duration
	lastOK  int64
	windows []window
}

func newMeter() *meter { return &meter{start: time.Now(), cpu: cpuTime()} }

// tick closes the current window once it has lasted windowLen, or at once
// when final is set. A final window shorter than half a window is dropped.
func (m *meter) tick(final bool) {
	now := time.Now()
	dur := now.Sub(m.start)
	if dur < windowLen && (!final || dur < windowLen/2) {
		return
	}
	cpu, ok := cpuTime(), m.ok.Load()
	m.windows = append(m.windows, window{ok: int(ok - m.lastOK), cpu: cpu - m.cpu, dur: dur})
	m.start, m.cpu, m.lastOK = now, cpu, ok
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// segmentSamples is the number of consecutive latency samples each
// percentile is taken over; the reported figure is the median across
// segments, so a stall from outside the process that backs the system up
// within one segment does not decide it. In a segment, the tail rule
// (minBeyond) puts the reported tail at p96.
const segmentSamples = 250

// phase is what one timed phase produced.
type phase struct {
	tally tally
	// latencies are per answered request (serving, from its due time) or
	// per ClassifyBatch call (batch), in ms, in the order they were due or
	// started.
	latencies []float64
	// lags are how late the open-loop generator sent each request, in ms.
	lags    []float64
	windows []window
}

// latency returns the medians across segments of each segment's median
// and tail latency, in ms. The tail is the highest percentile up to p99
// that leaves at least minBeyond samples beyond it in the segment; a short
// last segment joins the one before it.
func (ph phase) latency() (p50, tail float64, err error) {
	n := len(ph.latencies)
	if n <= minBeyond {
		return 0, 0, fmt.Errorf("%d latency samples support no tail percentile", n)
	}
	var p50s, tails []float64
	for lo := 0; lo < n; lo += segmentSamples {
		hi := lo + segmentSamples
		if n-hi < segmentSamples {
			hi = n
		}
		seg := append([]float64(nil), ph.latencies[lo:hi]...)
		t, _, ok := tailPercentile(seg, 99)
		if ok {
			p50s = append(p50s, median(seg))
			tails = append(tails, t)
		}
		if hi == n {
			break
		}
	}
	return median(p50s), median(tails), nil
}

// throughput is the median over windows of correctly answered images per
// second.
func (ph phase) throughput() float64 {
	var xs []float64
	for _, w := range ph.windows {
		xs = append(xs, float64(w.ok)/w.dur.Seconds())
	}
	return median(xs)
}

// cpuMsPerImg is the median over windows of process CPU time per correctly
// answered image, in ms.
func (ph phase) cpuMsPerImg() float64 {
	var xs []float64
	for _, w := range ph.windows {
		if w.ok > 0 {
			xs = append(xs, ms(w.cpu)/float64(w.ok))
		}
	}
	return median(xs)
}

// reqIDHeader carries the generator's request number, so a traced server
// can tag its spans with it.
const reqIDHeader = "X-Bench-Request"

// openLoop sends the requests seq (pool indices) at the offsets due from
// the phase start, over at most conns connections. A request whose
// connections are all busy waits for one; its latency still counts from
// when it was due, and the wait shows as generator lag.
func openLoop(url string, in *inputs, seq []int, due []time.Duration, initialStage int) phase {
	client := &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()

	verdicts := make([]verdict, len(seq))
	latencies := make([]time.Duration, len(seq))
	lags := make([]float64, len(seq))
	jobs := make(chan int)
	var wg sync.WaitGroup
	m := newMeter()
	start := m.start
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				status, body, err := post(client, url, in.bodies[seq[i]], i)
				latencies[i] = time.Since(start) - due[i]
				verdicts[i] = judgeHTTP(status, body, err, in.refs[seq[i]])
				if verdicts[i].outcome == outcomeOK {
					m.ok.Add(1)
				}
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		m.tick(false)
		jobs <- i
		lags[i] = ms(time.Since(start) - d)
	}
	close(jobs)
	wg.Wait()
	m.tick(true)

	ph := phase{lags: lags, windows: m.windows}
	for i, v := range verdicts {
		ph.tally.add(v, in.labels[seq[i]], initialStage)
		if v.answered {
			ph.latencies = append(ph.latencies, ms(latencies[i]))
		}
	}
	return ph
}

// post sends one pre-marshaled classify request and reads the answer.
func post(client *http.Client, url string, body []byte, id int) (status int, answer []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqIDHeader, strconv.Itoa(id))
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	answer, err = io.ReadAll(resp.Body)
	return resp.StatusCode, answer, err
}

// batchLoop sends closed-loop ClassifyBatch calls of batchSize images,
// walking in.order cyclically from position pos, until d has elapsed. It
// returns the phase and the position after the last call.
func batchLoop(be server.Backend, in *inputs, pos int, d time.Duration, initialStage int) (phase, int) {
	var ph phase
	images := make([]polygraph.Image, batchSize)
	idx := make([]int, batchSize)
	m := newMeter()
	begin := m.start
	for time.Since(begin) < d {
		for j := range images {
			idx[j] = in.order[(pos+j)%len(in.order)]
			images[j] = in.pool[idx[j]]
		}
		pos = (pos + batchSize) % len(in.order)
		t0 := time.Now()
		preds, err := be.ClassifyBatchContext(context.Background(), images)
		lat := time.Since(t0)
		for j, k := range idx {
			v := verdict{outcome: outcomeError}
			if err == nil {
				v = judgePrediction(preds[j], in.refs[k])
			}
			ph.tally.add(v, in.labels[k], initialStage)
			if v.outcome == outcomeOK {
				m.ok.Add(1)
			}
		}
		if err == nil {
			ph.latencies = append(ph.latencies, ms(lat))
		}
		m.tick(false)
	}
	m.tick(true)
	ph.windows = m.windows
	return ph, pos
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
