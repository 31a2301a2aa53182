package main

import (
	"fmt"
	"slices"
	"time"

	polygraph "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/perf"
	"repro/internal/tensor"
)

// candidates are the preprocessors polygraph.Build designs committees from.
var candidates = []string{"AdHist", "ConNorm", "FlipX", "FlipY", "Gamma(1.5)", "Gamma(2)", "ImAdj"}

// probeImages is how many images one layer probe runs through the full
// committee.
const probeImages = 320

// committee is a copy of a workload's member networks, built and compiled
// the way polygraph.Build builds them, through which the layer probe times
// preprocessing, member forwards and the decision rule with the public
// functions of those packages.
type committee struct {
	members []core.Member
	th      core.Thresholds
	// nets32 holds each member's compiled net, nil for the float64 path.
	nets32   []*nn.Net32
	verified bool
	// macs is the multiply-accumulate count of one image through every
	// member, computed from the layer shapes (perf.NetworkLayerCosts), not
	// counted at run time.
	macs float64
}

// newCommittee builds the committee of workload w and checks that it is
// the one the measured system runs (same members, same order).
func newCommittee(w workload, zooDir string, want []string) (*committee, error) {
	zoo := model.NewZoo(zooDir, dataset.Fast)
	b, err := model.ByName(benchmarkName)
	if err != nil {
		return nil, err
	}
	vs := make([]model.Variant, len(candidates))
	for i, n := range candidates {
		vs[i] = model.Variant{Preproc: n}
	}
	design, err := core.GreedyDesign(zoo, b, vs, members)
	if err != nil {
		return nil, err
	}
	sys, err := core.BuildSystem(zoo, b, design.Variants)
	if err != nil {
		return nil, err
	}
	c := &committee{members: sys.Members, th: sys.Th, verified: w.verified}
	var names []string
	for _, m := range sys.Members {
		names = append(names, m.Name)
	}
	if !slices.Equal(names, want) {
		return nil, fmt.Errorf("probe committee %v differs from the system's %v", names, want)
	}
	ds, err := zoo.Dataset(b.DatasetName)
	if err != nil {
		return nil, err
	}
	for _, m := range c.members {
		for _, lc := range perf.NetworkLayerCosts(m.Net, 32) {
			c.macs += lc.MACs
		}
		var net *nn.Net32
		switch w.backend {
		case "":
		case "f64":
			m.Net.Prepack()
		case "f32":
			net, err = m.Net.Compile32()
		case "int8":
			// Calibrate on the member's own view of the first validation
			// images, as Build does.
			var calib []*tensor.T
			for _, s := range ds.Val[:min(16, len(ds.Val))] {
				calib = append(calib, m.Pre.Apply(s.X))
			}
			net, err = m.Net.CompileInt8(calib)
		default:
			err = fmt.Errorf("unknown backend %q", w.backend)
		}
		if err != nil {
			return nil, fmt.Errorf("member %s: %w", m.Name, err)
		}
		c.nets32 = append(c.nets32, net)
	}
	return c, nil
}

// probeResult sums the layer times of one probe.
type probeResult struct {
	images                            int
	preprocessNs, forwardNs, decideNs int64
	macs                              float64
}

// probe runs images through every member in batches of batch images:
// preprocess each image, forward the batch, then decide each image from
// all member rows. A first untimed batch fills the arenas.
func (c *committee) probe(images []polygraph.Image, batch int, tr *tracer) probeResult {
	arena, arena32 := tensor.NewArena(), tensor.NewArena32()
	if c.verified {
		arena.SetAbft(&tensor.AbftStats{})
		arena32.SetAbft(&tensor.AbftStats{})
	}
	var r probeResult
	rows := make([][][]float64, batch)
	for j := range rows {
		rows[j] = make([][]float64, len(c.members))
	}
	pre := make([]*tensor.T, batch)
	for lo, n := 0, 0; lo+batch <= len(images); lo, n = lo+batch, n+1 {
		// The first batch only warms the arenas.
		timed := lo > 0
		span := func(name string, start, end time.Time, parent int) int {
			if !timed {
				return 0
			}
			return tr.observeProbe(name, start, end, parent, int64(n))
		}
		parent := span("probe.batch", time.Now(), time.Time{}, 0)
		var pNs, fNs int64
		for mi, m := range c.members {
			t0 := time.Now()
			for j, im := range images[lo : lo+batch] {
				pre[j] = m.Pre.Apply(tensor.FromSlice(im.Pixels, im.Channels, im.Height, im.Width))
			}
			t1 := time.Now()
			if net := c.nets32[mi]; net != nil {
				for j, row := range net.InferBatch(pre, arena32) {
					rows[j][mi] = row
				}
				arena32.Reset()
			} else {
				for j, out := range m.Net.InferBatchArena(pre, arena) {
					rows[j][mi] = append(rows[j][mi][:0], out.Data...)
				}
				arena.Reset()
			}
			t2 := time.Now()
			span("preprocess", t0, t1, parent)
			span("nn.forward", t1, t2, parent)
			pNs += t1.Sub(t0).Nanoseconds()
			fNs += t2.Sub(t1).Nanoseconds()
		}
		t3 := time.Now()
		for j := range rows {
			core.Decide(rows[j], c.th)
		}
		t4 := time.Now()
		span("core.decide", t3, t4, parent)
		if !timed {
			continue
		}
		tr.endSpan(parent, t4)
		r.images += batch
		r.preprocessNs += pNs
		r.forwardNs += fNs
		r.decideNs += t4.Sub(t3).Nanoseconds()
	}
	r.macs = c.macs * float64(r.images)
	return r
}
