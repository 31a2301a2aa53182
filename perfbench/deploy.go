package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	polygraph "repro"
	"repro/internal/server"
	"repro/internal/server/telemetry"
)

// deployment is one built system, and for serving workloads the HTTP
// stack in front of it on a loopback listener.
type deployment struct {
	sys *polygraph.System
	// backend is what the batch loop calls and the server serves from: the
	// system itself, or its timing wrapper in a traced run.
	backend server.Backend
	// tr instruments the deployment in a traced run; nil otherwise.
	tr      *tracer
	metrics *telemetry.Metrics
	srv     *server.Server
	hs      *http.Server
	served  chan error
	url     string
}

// buildSystem builds the workload's system from the zoo in zooDir and
// refuses to train: a missing or stale zoo entry would otherwise make
// Build train members for minutes.
func buildSystem(w workload, zooDir string, cached bool) (*polygraph.System, error) {
	if m, _ := filepath.Glob(filepath.Join(zooDir, benchmarkName+"__*.net.gob")); len(m) == 0 {
		return nil, fmt.Errorf("no %s members in %s", benchmarkName, zooDir)
	}
	var notes atomic.Int64
	sys, err := polygraph.Build(benchmarkName, w.options(zooDir, cached, func(string, ...any) { notes.Add(1) }))
	if err != nil {
		return nil, err
	}
	if notes.Load() > 0 {
		sys.Close()
		return nil, fmt.Errorf("building %s trained members: the zoo in %s is incomplete", benchmarkName, zooDir)
	}
	return sys, nil
}

// deploy builds the workload's deployment and returns it with its set-up
// time: from the start of Build until the first request can be served.
// tr, when non-nil, instruments the backend and the HTTP handler.
func deploy(w workload, zooDir string, tr *tracer) (*deployment, time.Duration, error) {
	start := time.Now()
	sys, err := buildSystem(w, zooDir, true)
	if err != nil {
		return nil, 0, err
	}
	d := &deployment{sys: sys, backend: sys, tr: tr}
	if tr != nil {
		d.backend = tr.wrap(sys, w.cacheBytes > 0)
	}
	if !w.serve {
		return d, time.Since(start), nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.Close()
		return nil, 0, err
	}
	// The same configuration pgmr-serve runs with its default flags: the
	// server's defaults plus a metrics bundle sized to the committee.
	d.metrics = telemetry.NewMetrics(members)
	d.srv, err = server.New(server.Config{Backend: d.backend, Metrics: d.metrics})
	if err != nil {
		ln.Close()
		sys.Close()
		return nil, 0, err
	}
	handler := d.srv.Handler()
	if tr != nil {
		handler = tr.middleware(handler)
	}
	d.hs = &http.Server{Handler: handler}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.url = "http://" + ln.Addr().String() + "/v1/classify"
	return d, time.Since(start), nil
}

// close stops the HTTP stack, waits for its goroutines, and releases the
// system.
func (d *deployment) close() error {
	if d.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("http shutdown: %w", err)
		}
		if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
			return fmt.Errorf("http serve: %w", err)
		}
		if err := d.srv.Drain(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}
	return d.sys.Close()
}
