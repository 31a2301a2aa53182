package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/tensor"
)

func init() {
	register("ext-throughput", ExtThroughput)
}

// ExtThroughput is an extension beyond the paper's figures: it measures the
// wall-clock throughput of core.System's one engine driven two ways —
// per-image Classify (a batch of one per call) and ClassifyBatch over the
// whole frame set (every stage runs one fused minibatch pass per member,
// members of a stage spread over the worker pool) — on one real benchmark
// system. The paper argues MR is affordable because redundant networks run
// concurrently on parallel hardware ("Cost Containment"); this experiment
// is the software realization of that claim.
//
// Both must produce identical decisions on every backend; the experiment
// verifies that on every frame before reporting numbers.
func ExtThroughput(ctx *Context) (*Result, error) {
	b, err := model.ByName("convnet")
	if err != nil {
		return nil, err
	}
	design, err := ctx.Design(b, 4)
	if err != nil {
		return nil, err
	}
	sys, err := core.BuildSystem(ctx.Zoo, b, design.Variants)
	if err != nil {
		return nil, err
	}
	sys.Workers = ctx.Workers

	ds, err := ctx.Zoo.Dataset(b.DatasetName)
	if err != nil {
		return nil, err
	}
	backend, err := core.ParseBackend(ctx.Backend)
	if err != nil {
		return nil, fmt.Errorf("ext-throughput: %w", err)
	}
	if backend != core.BackendF64 {
		for i := range sys.Members {
			sys.Members[i].Backend = backend
		}
		calib := make([]*tensor.T, 0, 16)
		for i := 0; i < len(ds.Val) && i < 16; i++ {
			calib = append(calib, ds.Val[i].X)
		}
		if err := sys.PrepareBackends(calib); err != nil {
			return nil, fmt.Errorf("ext-throughput: %w", err)
		}
	}
	if ctx.Verified {
		sys.PrepareVerified(true)
	}
	n := len(ds.Test)
	if n > 256 {
		n = 256
	}
	xs := make([]*tensor.T, n)
	for i := 0; i < n; i++ {
		xs[i] = ds.Test[i].X
	}

	run := func(f func() []core.Decision) ([]core.Decision, time.Duration) {
		start := time.Now()
		d := f()
		return d, time.Since(start)
	}
	perImage := func() []core.Decision {
		out := make([]core.Decision, n)
		for i, x := range xs {
			out[i] = sys.Classify(x)
		}
		return out
	}
	batched := func() []core.Decision { return sys.ClassifyBatch(xs) }

	oneD, oneT := run(perImage)
	batD, batT := run(batched)
	for i := range oneD {
		if !reflect.DeepEqual(oneD[i], batD[i]) {
			return nil, fmt.Errorf("ext-throughput: %s batch decision diverges on frame %d: %+v vs %+v", backend, i, batD[i], oneD[i])
		}
	}

	res := &Result{
		ID: "ext-throughput", Title: "Live inference throughput by execution strategy (extension; RAMR/RADE cost containment)",
		Header: []string{"strategy", "frames", "wall", "frames/sec", "speedup"},
	}
	row := func(name string, wall time.Duration) {
		res.AddRow(name, fmt.Sprint(n),
			wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", float64(n)/wall.Seconds()),
			fmt.Sprintf("%.2fx", oneT.Seconds()/wall.Seconds()))
	}
	row("per-image Classify", oneT)
	row("ClassifyBatch", batT)
	workers := ctx.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	res.AddNote("4-member %s system, staged activation, %s backend, %d worker(s) on %d CPU(s)",
		b.Name, backend, workers, runtime.NumCPU())
	if ctx.Verified {
		res.AddNote("ABFT checksum verification enabled (-verified); ext-abft isolates the verification overhead")
	}
	res.AddNote("decisions verified identical across strategies")
	return res, nil
}
