// Command perfbench is the PolygraphMR benchmark: it measures the serving
// cost and the reliability outcome (the paper's TP/FP) of the 4-member
// ConvNet committee, end to end and layer by layer.
//
// Run it from the repository root, through the script that builds it:
//
//	bash perfbench/run.sh --workload serve-zipf-cache --seed 1 --seconds 40 --trace 0
//
// --workload all runs every workload in turn, in one process.
//
// Workloads (see workload.go for the constants; BENCHMARK.json lists the
// two whose figures are steady enough to gate changes on):
//
//	serve-unique        HTTP open loop, one never-repeated image per request, f64, no cache
//	serve-zipf-cache    HTTP open loop, Zipf(1.1) requests over a pool larger than the cache, f32 + cache
//	batch-int8          one caller, closed-loop ClassifyBatch of 32 distinct images, int8
//	batch-f32-verified  the same on f32 with ABFT verification
//
// Every run builds its system from testdata/zoo through polygraph.Build
// (it refuses to train), computes a reference decision for every input,
// warms up, and then times one phase of --seconds. Every answer is checked
// against its reference: label, reliability, agreement and activation
// count must match, or the image counts as failed, as do refused (429)
// and errored requests. Confidence differences alone are counted as drift.
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics:
//
//	setup_s           median over three deployments of Build start until the first request can be served
//	throughput_img_s  median over 1 s windows of correctly answered images per second
//	latency_p50_ms    median over segments of 250 consecutive samples of the segment's median
//	latency_p99_ms    median over the same segments of the highest percentile up to p99
//	                  that leaves at least ten samples beyond it: p96 in 250 samples
//	cpu_ms_per_img    median over 1 s windows of process CPU time (getrusage) per correct image
//	peak_rss_mb       the process's peak resident set
//	tp_ratio          correct and reliable predictions over images attempted
//	fp_ratio          wrong but reliable predictions over images attempted
//
// Serving latency counts from when a request was due, so a stall also
// delays the requests behind it; batch latency is one ClassifyBatch call.
// The windows and segments keep a burst of contention from outside the
// process from deciding a run's figures.
//
// With --trace 1 the run is made twice, untraced then traced, and the
// object holds the per-layer metrics of the traced one (see layer.go) plus
// the tracing overhead. The traced run instruments the program only from
// outside: a timing wrapper around the backend handed to the server, a
// middleware around its handler, the server's telemetry, the system's
// counters, and a probe that times preprocess, nn and the decision rule
// through their public functions. Its spans and an environment block are
// written to .bench_build/traces/. A line above the result carries the
// same environment block.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	polygraph "repro"
	"repro/internal/dataset"
	"repro/internal/model"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult reports the metrics of a run whose outcomes t counted. The
// outputs are correct when some image was answered and no answer differed
// from its reference.
func newResult(t tally, metrics map[string]metric) result {
	return result{Correct: t.mismatch == 0 && t.ok > 0, Attempted: t.attempted, Failed: t.failed(), Metrics: metrics}
}

func main() {
	name := flag.String("workload", "", `workload to run, or "all" to run each in turn`)
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 40, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	todo := workloads
	var err error
	if *name != "all" {
		var w workload
		w, err = workloadByName(*name)
		todo = []workload{w}
	}
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		flag.Usage()
		os.Exit(2)
	}
	for _, w := range todo {
		env := newEnvironment(w.name, *seed, *trace == 1)
		res, err := run(w, *seed, time.Duration(*seconds)*time.Second, env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		envLine, err := json.Marshal(env)
		if err == nil {
			fmt.Printf("env %s\n", envLine)
			var line []byte
			if line, err = json.Marshal(res); err == nil {
				fmt.Println(string(line))
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

// run measures one workload and returns its result line.
func run(w workload, seed int64, seconds time.Duration, env environment) (result, error) {
	// The zoo under the working directory supplies every member; the fast
	// profile is the one its files were trained for.
	os.Unsetenv("PGMR_FULL")
	wd, err := os.Getwd()
	if err != nil {
		return result{}, err
	}
	zooDir := filepath.Join(wd, "testdata", "zoo")
	b, err := model.ByName(benchmarkName)
	if err != nil {
		return result{}, err
	}
	ds, err := model.NewZoo(zooDir, dataset.Fast).Dataset(b.DatasetName)
	if err != nil {
		return result{}, err
	}
	in, err := newInputs(w, ds.Test, seed, seconds.Seconds())
	if err != nil {
		return result{}, err
	}
	defer in.close()
	if !env.Trace {
		return runEndToEnd(w, zooDir, in, seconds)
	}
	return runTraced(w, zooDir, in, seconds, env)
}

// runEndToEnd deploys the workload setupRepeats times, keeps the last
// deployment, and measures one untraced timed phase on it.
func runEndToEnd(w workload, zooDir string, in *inputs, seconds time.Duration) (result, error) {
	var setups []float64
	var dep *deployment
	for i := 0; i < setupRepeats; i++ {
		if dep != nil {
			if err := dep.close(); err != nil {
				return result{}, err
			}
		}
		runtime.GC()
		d, setup, err := deploy(w, zooDir, nil)
		if err != nil {
			return result{}, err
		}
		dep = d
		setups = append(setups, setup.Seconds())
	}
	m, err := measure(w, dep, in, zooDir, seconds)
	if cerr := dep.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	t := m.ph.tally
	p50, p99, err := m.ph.latency()
	if err != nil {
		return result{}, err
	}
	lag, _, _ := tailPercentile(append([]float64(nil), m.ph.lags...), 99)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d images attempted, %d failed (%d refused, %d errors, %d transport, %d mismatched); %d latency samples; generator lag p99 %.3f ms\n",
		w.name, t.attempted, t.failed(), t.rejected, t.errors, t.transport, t.mismatch, len(m.ph.latencies), lag)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return result{}, err
	}
	return newResult(t, map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_img_s": {m.ph.throughput(), "img/s"},
		"latency_p50_ms":   {p50, "ms"},
		"latency_p99_ms":   {p99, "ms"},
		"cpu_ms_per_img":   {m.ph.cpuMsPerImg(), "ms"},
		"peak_rss_mb":      {float64(ru.Maxrss) / 1024, "MB"},
		"tp_ratio":         {ratio(float64(t.tp), float64(t.attempted)), "ratio"},
		"fp_ratio":         {ratio(float64(t.fp), float64(t.attempted)), "ratio"},
	}), nil
}

// measurement is one timed phase with the counters around it.
type measurement struct {
	ph     phase
	before counters
	after  counters
	// initialStage is how many members the first RADE stage activates;
	// a decision that activated more escalated.
	initialStage int
	// members are the system's member names in activation order.
	members []string
}

// counters is a snapshot of every cumulative counter a phase is measured
// by.
type counters struct {
	mem              runtime.MemStats
	requests         uint64
	rejected         uint64
	batches, images  uint64
	queueWaitSeconds float64
	queueWaits       uint64
	probeHits        uint64
	probeMisses      uint64
	cache            polygraph.CacheStats
	abft             polygraph.AbftCounts
}

func snapshot(dep *deployment) counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	if m := dep.metrics; m != nil {
		c.requests = m.Requests.Value()
		c.rejected = m.Rejected.Value()
		c.batches = m.Batches.Value()
		c.images = m.Images.Value()
		c.queueWaitSeconds = m.QueueWait.Sum()
		c.queueWaits = m.QueueWait.Count()
		c.probeHits = m.CacheHits.Value()
		c.probeMisses = m.CacheMisses.Value()
	}
	c.cache = dep.sys.CacheStats()
	c.abft = dep.sys.AbftCounts()
	return c
}

// measure computes the reference decisions if they are missing, warms the
// deployment up, and runs one timed phase.
func measure(w workload, dep *deployment, in *inputs, zooDir string, seconds time.Duration) (measurement, error) {
	if in.refs == nil {
		if err := computeRefs(w, dep, in, zooDir); err != nil {
			return measurement{}, err
		}
	}
	_, freq := dep.sys.Thresholds()
	m := measurement{initialStage: max(freq, 2), members: dep.sys.Members()}
	pos := 0
	if w.serve {
		openLoop(dep.url, in, in.warm, w.schedule(len(in.warm)), m.initialStage)
	} else {
		_, pos = batchLoop(dep.backend, in, 0, warmup, m.initialStage)
	}
	runtime.GC()
	m.before = snapshot(dep)
	if dep.tr != nil {
		dep.tr.on.Store(true)
		defer dep.tr.on.Store(false)
	}
	if w.serve {
		m.ph = openLoop(dep.url, in, in.timed, w.schedule(len(in.timed)), m.initialStage)
	} else {
		m.ph, _ = batchLoop(dep.backend, in, pos, seconds, m.initialStage)
	}
	m.after = snapshot(dep)
	return m, nil
}

// computeRefs fills in.refs at the batch size the workload runs at: one
// image per call for serving, where the batcher mostly dispatches single
// images, and batchSize for the batch workloads. A cached workload
// computes them on an uncached twin of its system, so the measured cache
// starts cold.
func computeRefs(w workload, dep *deployment, in *inputs, zooDir string) error {
	batch := batchSize
	if w.serve {
		batch = 1
	}
	if w.cacheBytes == 0 {
		return in.computeRefs(dep.sys, batch)
	}
	twin, err := buildSystem(w, zooDir, false)
	if err != nil {
		return err
	}
	// The twin has no cache or cluster to flush, so its Close cannot fail.
	defer twin.Close()
	return in.computeRefs(twin, batch)
}

// runTraced measures the workload untraced and then traced, each on a
// fresh deployment, and reports the per-layer metrics of the traced phase
// followed by a layer probe of nn, preprocess and the decision rule.
func runTraced(w workload, zooDir string, in *inputs, seconds time.Duration, env environment) (result, error) {
	phaseOn := func(tr *tracer) (measurement, error) {
		runtime.GC()
		dep, _, err := deploy(w, zooDir, tr)
		if err != nil {
			return measurement{}, err
		}
		m, err := measure(w, dep, in, zooDir, seconds)
		if cerr := dep.close(); err == nil {
			err = cerr
		}
		return m, err
	}
	plain, err := phaseOn(nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	traced, err := phaseOn(tr)
	if err != nil {
		return result{}, err
	}
	layer, err := layerMetrics(w, zooDir, in, plain, traced, tr)
	if err != nil {
		return result{}, err
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, env.Seed))
	if err := tr.write(path, env, layer); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	t := plain.ph.tally
	t.merge(traced.ph.tally)
	return newResult(t, layer), nil
}
