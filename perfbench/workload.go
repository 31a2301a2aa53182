package main

import (
	"fmt"
	"time"

	polygraph "repro"
)

// benchmarkName is the paper benchmark every workload runs: the 4-member
// ConvNet/CIFAR-10 committee, whose members load from testdata/zoo.
const (
	benchmarkName = "convnet"
	members       = 4
)

// Fixed load shape. The offered rates are constants, never recalibrated
// per run: a faster program must face the same load, or its gain would
// be spent on a heavier one. BENCHMARK.json records them in each
// workload's "why".
const (
	// zipfPool is the number of distinct images the Zipf draws rank over;
	// the cache budget holds only a fraction of them.
	zipfPool = 1500
	// zipfS is the Zipf exponent.
	zipfS = 1.1
	// zipfCacheBytes is the prediction-cache budget of serve-zipf-cache.
	zipfCacheBytes = 64 << 10
	// batchSize is the number of distinct images per ClassifyBatch call of
	// the batch workloads.
	batchSize = 32
	// conns bounds the HTTP connections (and batch callers) of the load
	// generator: one per CPU of the reference box.
	conns = 2
	// setupRepeats is how many times a run builds its deployment; setup_s
	// is the median, and the last deployment serves the run.
	setupRepeats = 3
	// warmup is how long a deployment runs the workload before timing, so
	// pools, arenas and the cache reach steady state.
	warmup = 2 * time.Second
	// variantNoise is the half-width of the uniform pixel noise that turns
	// a test image into a distinct variant of it.
	variantNoise = 0.02
)

// workload is one named input mix and deployment.
type workload struct {
	name string
	// serve selects the HTTP open loop; otherwise a single caller sends
	// closed-loop ClassifyBatch calls of batchSize images.
	serve bool
	// The open loop's arrival schedule: one request at each offset in every
	// period. A fixed grid rather than random arrivals: with at most conns
	// connections, random bursts queue in the generator, and that queueing
	// dominated the latency tail and its run-to-run spread.
	period  time.Duration
	offsets []time.Duration
	// zipf draws requests Zipf(zipfS) from a zipfPool-image pool; otherwise
	// serving images are never repeated.
	zipf bool
	// System configuration.
	backend    string
	verified   bool
	cacheBytes int64
}

var workloads = []workload{
	// 100 req/s: every 30 ms a lone request, and 15 ms later a pair 1 ms
	// apart, which the server's 5 ms batch window coalesces — so the engine
	// runs batches of one and of two. Each request takes the 5 ms window
	// plus its compute, so at this rate a connection is free again well
	// before the next request is due.
	{name: "serve-unique", serve: true, period: 30 * time.Millisecond,
		offsets: []time.Duration{0, 15 * time.Millisecond, 16 * time.Millisecond}},
	// 125 req/s, one request every 8 ms. A miss waits out the batch window,
	// so faster rates left too little headroom on two connections: a slow
	// spell from outside the process backed the generator up for the rest
	// of the run.
	{name: "serve-zipf-cache", serve: true, period: 8 * time.Millisecond, offsets: []time.Duration{0},
		zipf: true, backend: "f32", cacheBytes: zipfCacheBytes},
	{name: "batch-int8", backend: "int8"},
	{name: "batch-f32-verified", backend: "f32", verified: true},
}

// rate is the open loop's offered rate in requests (= images) per second.
func (w workload) rate() float64 {
	return float64(len(w.offsets)) / w.period.Seconds()
}

// schedule returns the due times of n requests from the start of a phase.
func (w workload) schedule(n int) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i/len(w.offsets))*w.period + w.offsets[i%len(w.offsets)]
	}
	return due
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// options returns the Build options of the workload's system. cached=false
// drops the prediction cache, for the twin that computes reference
// decisions without filling the measured cache.
func (w workload) options(zooDir string, cached bool, progress func(string, ...any)) polygraph.Options {
	o := polygraph.Options{
		Members:  members,
		Backend:  w.backend,
		Verified: w.verified,
		CacheDir: zooDir,
		Progress: progress,
	}
	if cached && w.cacheBytes > 0 {
		o.Cache = &polygraph.CacheOptions{MaxBytes: w.cacheBytes}
	}
	return o
}
