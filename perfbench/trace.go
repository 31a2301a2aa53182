package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	polygraph "repro"
	"repro/internal/server"
)

// span is one timed interval at a layer boundary.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // since the tracer was created
	End   int64  `json:"end_ns"`
	// Parent is the 1-based index of the enclosing span, 0 for none.
	Parent int `json:"parent"`
	// Req is the generator's request number (the batch number in probe
	// spans), -1 where the layer cannot see it: batches mix requests, and
	// cache probes get no request context.
	Req int64 `json:"req"`
}

// tracer keeps spans in memory while on and sums the layer times the
// per-layer metrics are computed from. It observes the program only from
// outside: a wrapper around the backend the server is handed, and a
// middleware around the server's handler.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	// HTTP handler time of classify requests.
	handlerNs int64
	handled   int
	// Backend ClassifyBatchContext calls.
	batchMs     []float64
	batchImages int
	batchNs     int64
	// Backend busy time charged to requests: each request waits for the
	// whole batch it rode in.
	batchReqNs int64
	// Pre-admission cache probes.
	lookups  int
	lookupNs int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record appends a span and returns its 1-based index. Call with t.mu
// held.
func (t *tracer) record(name string, start, end time.Time, parent int, req int64) int {
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Req: req,
	})
	return len(t.spans)
}

func (t *tracer) observeBatch(start, end time.Time, images int) {
	if !t.on.Load() {
		return
	}
	d := end.Sub(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.record("core.batch", start, end, 0, -1)
	t.batchMs = append(t.batchMs, ms(d))
	t.batchImages += images
	t.batchNs += d.Nanoseconds()
	t.batchReqNs += d.Nanoseconds() * int64(images)
}

func (t *tracer) observeLookup(start, end time.Time) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.record("cache.lookup", start, end, 0, -1)
	t.lookups++
	t.lookupNs += end.Sub(start).Nanoseconds()
}

func (t *tracer) observeHandler(start, end time.Time, req int64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.record("server.http", start, end, 0, req)
	t.handled++
	t.handlerNs += end.Sub(start).Nanoseconds()
}

// observeProbe records one layer-probe span and returns its index; probes
// run after the timed phase, so they are recorded whether or not the
// tracer is on. A zero end leaves the span open for endSpan.
func (t *tracer) observeProbe(name string, start, end time.Time, parent int, batch int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.record(name, start, end, parent, batch)
}

// endSpan sets the end of a span recorded open by observeProbe.
func (t *tracer) endSpan(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// middleware times every request through the server's handler.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		req, err := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
		if err != nil {
			req = -1
		}
		t.observeHandler(start, end, req)
	})
}

// wrap returns sys behind a timing wrapper. With cached set the wrapper
// also implements server.CacheProber by delegation, so the server keeps
// its pre-admission cache probe; without it the wrapper hides the probe
// exactly as an uncached system would.
func (t *tracer) wrap(sys *polygraph.System, cached bool) server.Backend {
	b := &timedBackend{sys: sys, tr: t}
	if cached {
		return timedCacheBackend{b}
	}
	return b
}

type timedBackend struct {
	sys *polygraph.System
	tr  *tracer
}

func (b *timedBackend) ClassifyBatchContext(ctx context.Context, images []polygraph.Image) ([]polygraph.Prediction, error) {
	start := time.Now()
	preds, err := b.sys.ClassifyBatchContext(ctx, images)
	b.tr.observeBatch(start, time.Now(), len(images))
	return preds, err
}

func (b *timedBackend) InputShape() (channels, height, width int) { return b.sys.InputShape() }

type timedCacheBackend struct{ *timedBackend }

func (b timedCacheBackend) CacheLookup(im polygraph.Image) (polygraph.Prediction, bool) {
	start := time.Now()
	p, ok := b.sys.CacheLookup(im)
	b.tr.observeLookup(start, time.Now())
	return p, ok
}

func (b timedCacheBackend) CacheStats() polygraph.CacheStats { return b.sys.CacheStats() }

// write saves the environment, the per-layer metrics and every span as one
// JSON document.
func (t *tracer) write(path string, env environment, layer map[string]metric) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Env     environment       `json:"env"`
		Metrics map[string]metric `json:"metrics"`
		Spans   []span            `json:"spans"`
	}{env, layer, t.spans})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
