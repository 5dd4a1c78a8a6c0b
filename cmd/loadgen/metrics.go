package main

import "time"

// metricDef is one reported metric. BENCHMARK.json at the repository root
// lists the same metrics; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is, for an end-to-end metric, how far its median may move the
	// wrong way, as a share of the baseline median, before a change counts
	// as a regression. Per-layer metrics have none.
	bound float64
}

// endToEnd are the gated metrics a user of the daemon sees, measured with
// tracing off. The heap's bound is the issue's 10%, over three times the
// widest spread it showed (README.md, "Measured spreads"); set-up time
// takes the largest bound allowed.
var endToEnd = []metricDef{
	{"heap_live_mb", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// demoted were planned as end-to-end metrics. On the shared reference
// machine, whose speed drifts by 20-40% within minutes, their spread over
// ten seeds exceeded the 0.25 ceiling on some workload (README.md,
// "Measured spreads"). Untraced runs still measure and print them, and
// -runs and -baseline summarise them, but they carry no bound, and traced
// runs report them (from their untraced run) as per-layer metrics.
var demoted = []metricDef{
	{"throughput_rps", "1/s", "higher", 0},
	{"latency_p50_ms", "ms", "lower", 0},
	{"latency_p90_ms", "ms", "lower", 0},
	{"cpu_ms_per_req", "ms", "lower", 0},
}

// untracedMetrics are the metrics an untraced run prints: the demoted ones
// and the end-to-end ones.
var untracedMetrics = append(append([]metricDef(nil), demoted...), endToEnd...)

// perLayer are the metrics a traced run reports: the demoted ones, then the
// metrics of single modules.
var perLayer = append(append([]metricDef(nil), demoted...), []metricDef{
	{"server.cache_hit_ratio", "ratio", "higher", 0},
	{"server.rung_share.hit", "ratio", "higher", 0},
	{"server.rung_share.disk", "ratio", "higher", 0},
	{"server.rung_share.miss", "ratio", "lower", 0},
	{"server.rung_p50_ms.hit", "ms", "lower", 0},
	{"server.rung_p50_ms.disk", "ms", "lower", 0},
	{"server.rung_p50_ms.miss", "ms", "lower", 0},
	{"server.resp_kib", "KiB", "lower", 0},
	{"server.allocs_per_req", "count", "lower", 0},
	{"server.key_us.analyze", "us", "lower", 0},
	{"server.key_us.validate", "us", "lower", 0},
	{"server.key_us.matrix", "us", "lower", 0},
	{"server.overhead_p50_ms", "ms", "lower", 0},
	{"server.collections", "count", "lower", 0},
	{"server.coalesced_ratio", "ratio", "higher", 0},
	{"server.admission_rejected", "count", "lower", 0},
	{"server.self_share", "ratio", "lower", 0},
	{"cat.collect_ms.cpu-flops", "ms", "lower", 0},
	{"cat.collect_ms.gpu-flops", "ms", "lower", 0},
	{"cat.collect_ms.branch", "ms", "lower", 0},
	{"cat.collect_ms.dcache", "ms", "lower", 0},
	{"cat.collect_serial_ms.cpu-flops", "ms", "lower", 0},
	{"cat.collect_serial_ms.gpu-flops", "ms", "lower", 0},
	{"cat.collect_serial_ms.branch", "ms", "lower", 0},
	{"cat.collect_serial_ms.dcache", "ms", "lower", 0},
	{"cat.self_share", "ratio", "lower", 0},
	{"core.basis_ms", "ms", "lower", 0},
	{"core.noise_ms", "ms", "lower", 0},
	{"core.project_ms", "ms", "lower", 0},
	{"core.qrcp_ms", "ms", "lower", 0},
	{"core.define_ms", "ms", "lower", 0},
	{"core.report_ms", "ms", "lower", 0},
	{"core.allocs_per_analysis", "count", "lower", 0},
	{"core.self_share", "ratio", "lower", 0},
	{"store.writes", "count", "higher", 0},
	{"store.hits", "count", "higher", 0},
	{"store.misses", "count", "lower", 0},
	{"store.corrupt", "count", "lower", 0},
	{"store.put_ms", "ms", "lower", 0},
	{"store.get_ms", "ms", "lower", 0},
	{"store.self_share", "ratio", "lower", 0},
	{"shard.forwarded_ratio", "ratio", "lower", 0},
	{"shard.failover", "count", "lower", 0},
	{"shard.forwarded_p50_ms", "ms", "lower", 0},
	{"shard.local_p50_ms", "ms", "lower", 0},
	{"matrix.runs", "count", "higher", 0},
	{"matrix.cells", "count", "higher", 0},
	{"matrix.pair_ms.branch", "ms", "lower", 0},
	{"matrix.pair_ms.cpu-flops", "ms", "lower", 0},
	{"matrix.pair_ms.dcache", "ms", "lower", 0},
	{"matrix.pair_ms.gpu-flops", "ms", "lower", 0},
	{"matrix.self_share", "ratio", "lower", 0},
	{"validate.runs", "count", "higher", 0},
	{"validate.run_ms.spr", "ms", "lower", 0},
	{"validate.run_ms.mi250x", "ms", "lower", 0},
	{"validate.self_share", "ratio", "lower", 0},
	{"proc.peak_rss_mb", "MiB", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"fail_ratio", "ratio", "lower", 0},
}...)

// reported are the metrics a run prints, and gated those in its result line.
func reported(trace bool) (lines, gated []metricDef) {
	if trace {
		return perLayer, perLayer
	}
	return untracedMetrics, endToEnd
}

// value is one measured metric and the number of samples behind it.
type value struct {
	v float64
	n int
}

// endToEndValues computes the untraced metrics of an untraced phase and the
// cold set-up times. heap_live_mb is measured separately, before the phase.
func endToEndValues(p *phase, setups []float64) map[string]value {
	all, inWindow := p.completed()
	lat := p.latenciesMS(func(record) bool { return true })
	return map[string]value{
		"throughput_rps": {float64(inWindow) / p.window.Seconds(), inWindow},
		"latency_p50_ms": {percentile(lat, 0.5), len(lat)},
		"latency_p90_ms": {percentile(lat, 0.9), len(lat)},
		"cpu_ms_per_req": {ratio(ms(p.cpu), float64(all)), all},
		"setup_s":        {median(setups), len(setups)},
	}
}

// spanStats sums the durations of the replay's spans by name.
type spanStats struct {
	total map[string]time.Duration
	count map[string]int
	self  map[string]time.Duration // by layer
}

func collectSpans(spans []span) spanStats {
	st := spanStats{total: map[string]time.Duration{}, count: map[string]int{}, self: map[string]time.Duration{}}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.layer() == "http" {
			continue
		}
		st.total[s.Name] += s.dur()
		st.count[s.Name]++
		st.self[s.layer()] += self[i]
	}
	return st
}

// meanMS is the mean duration of the spans named name, in milliseconds.
func (st spanStats) meanMS(name string) value {
	n := st.count[name]
	return value{ratio(ms(st.total[name]), float64(n)), n}
}

// layers are the modules self time is attributed to.
var layers = []string{"server", "store", "cat", "core", "matrix", "validate"}

// perLayerValues computes the per-layer metrics of a traced run from the
// traced HTTP phase p, the untraced run's throughput, the replay and the
// spans.
func perLayerValues(w *workload, p *phase, untracedRPS float64, rp *replayer, spans []span, mismatches int) map[string]value {
	out := map[string]value{}
	all, inWindow := p.completed()
	count := func(name string) value { return value{delta(p.before, p.after, name), 1} }

	byRung := map[string]int{}
	bytes := 0
	for _, r := range p.records {
		if r.ok {
			byRung[r.rung]++
			bytes += r.size
		}
	}
	for _, rung := range []string{srcHit, srcDisk, srcMiss} {
		lat := p.latenciesMS(func(r record) bool { return r.rung == rung })
		out["server.rung_share."+rung] = value{ratio(float64(byRung[rung]), float64(all)), all}
		out["server.rung_p50_ms."+rung] = value{percentile(lat, 0.5), len(lat)}
	}
	hits := delta(p.before, p.after, "eventlensd_cache_hits_total")
	misses := delta(p.before, p.after, "eventlensd_cache_misses_total")
	out["server.cache_hit_ratio"] = value{ratio(hits, hits+misses), int(hits + misses)}
	out["server.resp_kib"] = value{ratio(float64(bytes)/1024, float64(all)), all}
	out["server.allocs_per_req"] = value{ratio(float64(p.allocs), float64(all)), all}
	collections := delta(p.before, p.after, "eventlensd_collections_total")
	coalesced := delta(p.before, p.after, "eventlensd_batch_coalesced_total")
	out["server.collections"] = value{collections, 1}
	out["server.coalesced_ratio"] = value{ratio(coalesced, coalesced+collections), int(coalesced + collections)}
	out["server.admission_rejected"] = count("eventlensd_admission_rejected_total")

	out["store.writes"] = count("eventlensd_store_writes_total")
	out["store.hits"] = count("eventlensd_store_hits_total")
	out["store.misses"] = count("eventlensd_store_misses_total")
	out["store.corrupt"] = count("eventlensd_store_corrupt_total")

	shard := func(outcome string) float64 {
		return delta(p.before, p.after, `eventlensd_shard_requests_total{outcome="`+outcome+`"}`)
	}
	routed := shard("local") + shard("forwarded") + shard("failover")
	out["shard.forwarded_ratio"] = value{ratio(shard("forwarded"), routed), int(routed)}
	out["shard.failover"] = value{shard("failover"), 1}
	for _, fwd := range []bool{true, false} {
		name := "shard.local_p50_ms"
		if fwd {
			name = "shard.forwarded_p50_ms"
		}
		var lat []float64
		if w.replicas > 1 {
			lat = p.latenciesMS(func(r record) bool { return (r.servedBy != "") == fwd })
		}
		out[name] = value{percentile(lat, 0.5), len(lat)}
	}

	out["matrix.runs"] = count("eventlensd_matrix_runs_total")
	out["matrix.cells"] = count("eventlensd_matrix_cells_total")
	out["validate.runs"] = count("eventlensd_validate_runs_total")

	st := collectSpans(spans)
	for _, endpoint := range []string{"analyze", "validate", "matrix"} {
		v := st.meanMS("server.key." + endpoint)
		out["server.key_us."+endpoint] = value{v.v * 1000, v.n}
	}
	for _, b := range []string{"cpu-flops", "gpu-flops", "branch", "dcache"} {
		out["cat.collect_ms."+b] = st.meanMS("cat.collect." + b)
		out["cat.collect_serial_ms."+b] = st.meanMS("cat.collect_serial." + b)
		out["matrix.pair_ms."+b] = st.meanMS("matrix.pair." + b)
	}
	for _, stage := range []string{"basis", "noise", "project", "qrcp", "define", "report"} {
		out["core."+stage+"_ms"] = st.meanMS("core." + stage)
	}
	out["store.put_ms"] = st.meanMS("store.put")
	out["store.get_ms"] = st.meanMS("store.get")
	for _, platform := range []string{"spr", "mi250x"} {
		out["validate.run_ms."+platform] = st.meanMS("validate.run." + platform)
	}
	out["core.allocs_per_analysis"] = value{ratio(float64(rp.coreAllocs), float64(rp.analyses)), rp.analyses}
	var selfTotal time.Duration
	for _, l := range layers {
		selfTotal += st.self[l]
	}
	for _, l := range layers {
		out[l+".self_share"] = value{ratio(float64(st.self[l]), float64(selfTotal)), st.count["server.request"]}
	}

	// The daemon's own overhead: HTTP latency of requests that computed,
	// minus the replay's time for the same requests.
	var httpMS, replayMS []float64
	for _, r := range p.records {
		if root, ok := rp.roots[r.idx]; ok && r.ok && r.rung == srcMiss && root.rung == srcMiss {
			httpMS = append(httpMS, ms(r.end-r.start))
			replayMS = append(replayMS, ms(root.dur))
		}
	}
	out["server.overhead_p50_ms"] = value{median(httpMS) - median(replayMS), len(httpMS)}

	out["proc.peak_rss_mb"] = value{peakRSSMiB(), 1}
	out["proc.gc_cycles"] = value{float64(p.gcs), 1}
	out["trace.overhead_ratio"] = value{1 - ratio(float64(inWindow)/p.window.Seconds(), untracedRPS), inWindow}
	attempted := len(p.records)
	out["fail_ratio"] = value{ratio(float64(p.failures+mismatches), float64(attempted)), attempted}
	return out
}
