package main

import "math"

// layerMetrics computes the per-layer metrics of a traced phase: counter
// deltas around it, the tracer's sums, and a layer probe run afterwards.
// plain is the untraced phase the tracing overhead is measured against.
//
//	server.*     handler time less queue wait, backend time and cache probes
//	             (JSON decode, validation, encode) per request; mean queue
//	             wait, batch size, batches and refused share from the
//	             server's telemetry
//	cache.*      pre-admission hit ratio, mean probe time, evictions and
//	             coalesced inputs
//	core.*       backend ClassifyBatch time per image and per call, members
//	             activated per decision, the share that escalated past the
//	             first RADE stage, decision-rule time per image (probe) and
//	             answers whose Confidence drifted from the reference
//	preprocess.* and nn.*  per image through the whole committee at the
//	             workload's batch size (probe); GMAC/s divides the MACs
//	             computed from the layer shapes by the forward time
//	tensor.*     ABFT checksum checks per image and faults detected
//	go.*         allocation per correct image, GC cycles and pause time
//	bench.*      generator lateness (p99) and the tracing overhead
//
// A layer a workload does not run reads 0.
func layerMetrics(w workload, zooDir string, in *inputs, plain, traced measurement, tr *tracer) (map[string]metric, error) {
	b, a := traced.before, traced.after
	t := traced.ph.tally
	answered := float64(t.answered())

	tr.mu.Lock()
	handlerNs, handled := tr.handlerNs, tr.handled
	batchReqNs, batchNs, batchImages := tr.batchReqNs, tr.batchNs, tr.batchImages
	lookupNs, lookups := tr.lookupNs, tr.lookups
	batchMs := append([]float64(nil), tr.batchMs...)
	tr.mu.Unlock()

	queueWait := a.queueWaitSeconds - b.queueWaitSeconds
	batches := float64(a.batches - b.batches)
	batchMean := ratio(float64(a.images-b.images), batches)
	// Server self time: what the handler spent beyond waiting in the
	// admission queue, riding in a backend batch and probing the cache —
	// JSON decode, validation, admission and encode.
	selfNs := float64(handlerNs) - queueWait*1e9 - float64(batchReqNs) - float64(lookupNs)
	hits, misses := float64(a.probeHits-b.probeHits), float64(a.probeMisses-b.probeMisses)
	batchP50 := median(append([]float64(nil), batchMs...))
	batchP99, _, _ := tailPercentile(batchMs, 99)
	var lagP99 float64
	if w.serve {
		lagP99, _, _ = tailPercentile(append([]float64(nil), traced.ph.lags...), 99)
	}

	// The probe runs at the batch size the engine saw.
	probeBatch := batchSize
	if w.serve {
		probeBatch = min(max(1, int(math.Round(batchMean))), batchSize)
	}
	c, err := newCommittee(w, zooDir, traced.members)
	if err != nil {
		return nil, err
	}
	p := c.probe(in.probe[:probeImages+probeBatch], probeBatch, tr)
	pImages := float64(p.images)

	return map[string]metric{
		"server.self_us_per_img":    {ratio(selfNs/1e3, float64(handled)), "us"},
		"server.queue_wait_ms_mean": {ratio(queueWait*1e3, float64(a.queueWaits-b.queueWaits)), "ms"},
		"server.batch_size_mean":    {batchMean, "count"},
		"server.batches":            {batches, "count"},
		"server.rejected_ratio":     {ratio(float64(a.rejected-b.rejected), float64(a.requests-b.requests)), "ratio"},

		"cache.hit_ratio":      {ratio(hits, hits+misses), "ratio"},
		"cache.lookup_us_mean": {ratio(float64(lookupNs)/1e3, float64(lookups)), "us"},
		"cache.evictions":      {float64(a.cache.Evictions - b.cache.Evictions), "count"},
		"cache.coalesced":      {float64(a.cache.Coalesced - b.cache.Coalesced), "count"},

		"core.us_per_img":            {ratio(float64(batchNs)/1e3, float64(batchImages)), "us"},
		"core.batch_ms_p50":          {batchP50, "ms"},
		"core.batch_ms_p99":          {batchP99, "ms"},
		"core.activated_per_img":     {ratio(float64(t.activated), answered), "count"},
		"core.escalation_ratio":      {ratio(float64(t.escalated), answered), "ratio"},
		"core.decide_us_per_img":     {ratio(float64(p.decideNs)/1e3, pImages), "us"},
		"core.decision_drift":        {float64(t.drift), "count"},
		"preprocess.us_per_img":      {ratio(float64(p.preprocessNs)/1e3, pImages), "us"},
		"nn.forward_us_per_img":      {ratio(float64(p.forwardNs)/1e3, pImages), "us"},
		"nn.gmac_s":                  {ratio(p.macs/1e9, float64(p.forwardNs)/1e9), "GMAC/s"},
		"tensor.abft_checks_per_img": {ratio(float64(a.abft.Checks-b.abft.Checks), float64(batchImages)), "count"},
		"tensor.abft_detected":       {float64(a.abft.Detected - b.abft.Detected), "count"},

		"go.alloc_kb_per_img": {ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc)/1024, float64(t.ok)), "KiB"},
		"go.gc_count":         {float64(a.mem.NumGC - b.mem.NumGC), "count"},
		"go.gc_pause_ms":      {float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6, "ms"},

		"bench.gen_lag_p99_ms": {lagP99, "ms"},
		// Overhead in CPU per image: the end-to-end metric every workload
		// moves, where the open loops pin throughput to the offered rate.
		"bench.trace_overhead_pct": {100 * (ratio(traced.ph.cpuMsPerImg(), plain.ph.cpuMsPerImg()) - 1), "%"},
	}, nil
}
