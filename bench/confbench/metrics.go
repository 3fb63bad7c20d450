package main

import "fmt"

// metric is one reported number. The unit travels with it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eDef declares an end-to-end metric: what a user of the system
// sees, measured with tracing off. on lists the workloads the metric is
// defined for; on the others the benchmark driver still needs a value
// for every metric it knows, so the run reports that workload's p50_ms
// under the name (a value that can only regress when p50_ms does).
type e2eDef struct {
	name, unit, better string
	on                 []string // nil: every workload
}

// regressionBound is the share of the parent's median by which an
// end-to-end metric may get worse before a change counts as a
// regression. It is the largest the driver accepts, for every metric:
// on the 2-core VM this was written on, identical runs minutes apart
// already differ by 10-15% (README, "Noise floor").
const regressionBound = 0.25

var e2eDefs = []e2eDef{
	{"ops_per_s", "1/s", "higher", nil},
	{"p50_ms", "ms", "lower", nil},
	{"p95_ms", "ms", "lower", []string{"cold_solve", "hit_path", "cluster_durable"}},
	{"p99_ms", "ms", "lower", []string{"hit_path", "cluster_durable"}},
	{"first_result_ms", "ms", "lower", []string{"campus_batch"}},
	{"dirty_p50_ms", "ms", "lower", []string{"campus_batch"}},
	{"cold_p50_ms", "ms", "lower", []string{"cluster_durable"}},
	{"hop_p50_ms", "ms", "lower", []string{"cluster_durable"}},
	{"setup_s", "s", "lower", nil},
	{"peak_rss_mb", "MB", "lower", nil},
}

func (d e2eDef) appliesTo(workload string) bool {
	if d.on == nil {
		return true
	}
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd computes the end-to-end metrics of a run. resolved says
// which percentile a tail metric settled on.
func (r *run) endToEnd() (m map[string]metric, resolved map[string]string) {
	var throughput []float64
	for _, rd := range r.rounds {
		ok := 0
		for _, o := range rd.ops {
			if o.err == "" {
				ok++
			}
		}
		throughput = append(throughput, ratio(float64(ok), rd.wallS))
	}
	main := r.latencies(classMain, nil)
	p50 := median(main)
	p95, used95 := tail(main, 95)
	p99, used99 := tail(main, 99)
	resolved = map[string]string{"p95_ms": fmt.Sprintf("p%v", used95), "p99_ms": fmt.Sprintf("p%v", used99)}

	values := map[string]float64{
		"ops_per_s":       median(throughput),
		"p50_ms":          p50,
		"p95_ms":          p95,
		"p99_ms":          p99,
		"first_result_ms": median(r.latencies(classCold, nil)),
		"dirty_p50_ms":    median(r.latencies(classDirty, nil)),
		"cold_p50_ms":     median(r.latencies(classCold, nil)),
		"hop_p50_ms":      median(r.latencies(classMain, func(o opRecord) bool { return o.hop })),
		"setup_s":         median(r.setups),
		"peak_rss_mb":     peakRSSMB(),
	}
	m = map[string]metric{}
	for _, d := range e2eDefs {
		v := values[d.name]
		if !d.appliesTo(r.cfg.workload) {
			v = p50
		}
		m[d.name] = metric{v, d.unit}
	}
	return m, resolved
}

// layerDef declares a per-layer metric: one module's work, measured in
// the traced run from outside that module.
type layerDef struct {
	name, unit, better string
	value              func(v *layerView) float64
}

// layerView is what per-layer metrics are computed from.
type layerView struct {
	r     *run
	spans []span
	ops   float64 // attempted ops
}

func (v *layerView) p50(span string) float64   { return median(durations(v.spans, span)) }
func (v *layerView) total(span string) float64 { return sum(durations(v.spans, span)) }
func (v *layerView) c(name string) float64     { return v.r.counters[name] }
func (v *layerView) mean(sample string) float64 {
	s := v.r.samples[sample]
	return ratio(sum(s), float64(len(s)))
}
func (v *layerView) med(sample string) float64 { return median(v.r.samples[sample]) }
func (v *layerView) perOp(x float64) float64   { return ratio(x, v.ops) }

// bytes sums a byte count over every op.
func (v *layerView) bytes(f func(opRecord) int) float64 {
	var t float64
	for _, rd := range v.r.rounds {
		for _, o := range rd.ops {
			t += float64(f(o))
		}
	}
	return t
}

var layerDefs = []layerDef{
	{"spec.parse_us_p50", "us", "lower", func(v *layerView) float64 { return v.p50("spec.parse") }},
	{"spec.fingerprint_us_p50", "us", "lower", func(v *layerView) float64 { return v.p50("spec.fingerprint") }},
	{"spec.bytes_per_op", "bytes", "lower", func(v *layerView) float64 {
		return v.perOp(v.bytes(func(o opRecord) int { return o.reqBytes }))
	}},

	{"core.encode_ms_p50", "ms", "lower", func(v *layerView) float64 { return v.p50("core.encode") / 1e3 }},
	{"core.encode_share", "ratio", "lower", func(v *layerView) float64 {
		return ratio(v.total("core.encode"), v.total("probe.request"))
	}},
	{"core.vars_per_op", "count", "lower", func(v *layerView) float64 { return v.mean("vars") }},
	{"core.clauses_per_op", "count", "lower", func(v *layerView) float64 { return v.mean("clauses") }},
	{"core.pb_terms_per_op", "count", "lower", func(v *layerView) float64 { return v.mean("pb_terms") }},
	{"core.encode_allocs_per_op", "count", "lower", func(v *layerView) float64 { return v.mean("encode_allocs") }},
	{"core.verify_ms_p50", "ms", "lower", func(v *layerView) float64 { return v.p50("core.verify") / 1e3 }},

	{"sat.search_ms_p50", "ms", "lower", func(v *layerView) float64 { return v.p50("sat.search") / 1e3 }},
	{"sat.search_share", "ratio", "lower", func(v *layerView) float64 {
		return ratio(v.total("sat.search"), v.total("probe.request"))
	}},
	{"sat.conflicts", "count", "lower", func(v *layerView) float64 { return v.c("conflicts") }},
	{"sat.decisions", "count", "lower", func(v *layerView) float64 { return v.c("decisions") }},
	{"sat.propagations", "count", "lower", func(v *layerView) float64 { return v.c("propagations") }},
	{"sat.restarts", "count", "lower", func(v *layerView) float64 { return v.c("restarts") }},
	{"sat.reduced", "count", "lower", func(v *layerView) float64 { return v.c("reduced") }},
	{"sat.subsumed", "count", "lower", func(v *layerView) float64 { return v.c("subsumed") }},
	{"sat.conflicts_per_s", "1/s", "higher", func(v *layerView) float64 {
		return ratio(v.c("probe_conflicts"), v.c("probe_search_s"))
	}},
	{"sat.propagations_per_s", "1/s", "higher", func(v *layerView) float64 {
		return ratio(v.c("probe_propagations"), v.c("probe_search_s"))
	}},
	{"sat.props_per_conflict", "ratio", "lower", func(v *layerView) float64 {
		return ratio(v.c("propagations"), v.c("conflicts"))
	}},

	{"portfolio.retarget_ms_p50", "ms", "lower", func(v *layerView) float64 { return v.p50("portfolio.retarget") / 1e3 }},
	{"portfolio.session_solve_ms_p50", "ms", "lower", func(v *layerView) float64 { return v.p50("portfolio.session_solve") / 1e3 }},
	{"service.sessions_reused_ratio", "ratio", "higher", func(v *layerView) float64 {
		return ratio(v.c("session_hits"), v.c("session_hits")+v.c("session_misses"))
	}},

	{"decomp.partition_ms_p50", "ms", "lower", func(v *layerView) float64 { return v.p50("decomp.partition") / 1e3 }},
	{"decomp.regions_per_op", "count", "lower", func(v *layerView) float64 { return v.mean("decomp_regions") }},
	{"decomp.region_hit_ratio", "ratio", "higher", func(v *layerView) float64 {
		return ratio(v.c("region_hits"), v.c("region_hits")+v.c("region_misses"))
	}},
	{"decomp.region_ms_max_p50", "ms", "lower", func(v *layerView) float64 { return v.med("region_ms_max") }},
	{"decomp.region_ms_sum_p50", "ms", "lower", func(v *layerView) float64 { return v.med("region_ms_sum") }},
	{"decomp.overhead_ms_p50", "ms", "lower", func(v *layerView) float64 { return v.med("decomp_overhead_ms") }},
	{"decomp.escalated", "count", "lower", func(v *layerView) float64 { return v.c("decomp_escalated") }},

	{"service.cache_hit_ratio", "ratio", "higher", func(v *layerView) float64 {
		return ratio(v.c("cache_hits"), v.c("cache_hits")+v.c("cache_misses"))
	}},
	{"service.cache_evictions", "count", "lower", func(v *layerView) float64 { return v.c("cache_evictions") }},
	{"service.submit_hit_us_p50", "us", "lower", func(v *layerView) float64 { return v.med("submit_hit_us") }},
	{"service.http_overhead_us_p50", "us", "lower", func(v *layerView) float64 {
		return v.med("http_hit_us") - v.med("submit_hit_us")
	}},
	{"service.json_encode_us_p50", "us", "lower", func(v *layerView) float64 { return v.p50("service.json_encode") }},
	{"service.response_bytes_per_op", "bytes", "lower", func(v *layerView) float64 {
		return v.perOp(v.bytes(func(o opRecord) int { return o.respBytes }))
	}},
	{"service.queue_wait_ms_p50", "ms", "lower", func(v *layerView) float64 { return v.med("queue_wait_ms") }},
	{"service.jobs_degraded", "count", "lower", func(v *layerView) float64 { return v.c("jobs_degraded") }},

	{"wal.append_us_p50", "us", "lower", func(v *layerView) float64 { return v.p50("wal.append") }},
	{"wal.append_sync_us_p50", "us", "lower", func(v *layerView) float64 { return v.p50("wal.append_sync") }},
	{"wal.bytes_per_op", "bytes", "lower", func(v *layerView) float64 { return v.perOp(v.c("journal_bytes")) }},
	{"wal.records_per_op", "count", "lower", func(v *layerView) float64 { return v.perOp(v.c("journal_appended")) }},

	{"cluster.forwarded_ratio", "ratio", "lower", func(v *layerView) float64 { return v.perOp(v.c("forwarded")) }},
	{"cluster.hop_ms_p50", "ms", "lower", func(v *layerView) float64 {
		hop := v.r.latencies(classMain, func(o opRecord) bool { return o.hop })
		local := v.r.latencies(classMain, func(o opRecord) bool { return !o.hop })
		if len(hop) == 0 {
			return 0
		}
		return median(hop) - median(local)
	}},
	{"cluster.fill_hit_ratio", "ratio", "higher", func(v *layerView) float64 { return ratio(v.c("fill_hits"), v.c("fill_asked")) }},
	{"cluster.jobs_stolen", "count", "lower", func(v *layerView) float64 { return v.c("jobs_stolen") }},
	{"cluster.forward_failures", "count", "lower", func(v *layerView) float64 { return v.c("forward_failures") }},
	{"cluster.shipped_bytes_per_op", "bytes", "lower", func(v *layerView) float64 { return v.perOp(v.c("shipped_bytes")) }},
	{"cluster.ship_drain_ms", "ms", "lower", func(v *layerView) float64 {
		var d []float64
		for _, rd := range v.r.rounds {
			d = append(d, rd.drainMS)
		}
		return median(d)
	}},

	{"process.allocs_per_op", "count", "lower", func(v *layerView) float64 { return v.perOp(v.c("mallocs")) }},
	{"process.alloc_mb_per_op", "MB", "lower", func(v *layerView) float64 { return v.perOp(v.c("alloc_bytes")) / (1 << 20) }},
	{"process.gc_pause_ms", "ms", "lower", func(v *layerView) float64 { return v.c("gc_pause_ns") / 1e6 }},
	{"process.cpu_s_per_op", "s", "lower", func(v *layerView) float64 { return v.perOp(v.c("cpu_s")) }},

	{"trace.overhead_pct", "%", "lower", func(v *layerView) float64 {
		with := v.r.latencies(classMain, func(o opRecord) bool { return o.traced })
		without := v.r.latencies(classMain, func(o opRecord) bool { return !o.traced })
		if len(with) == 0 || len(without) == 0 {
			return 0
		}
		return 100 * (median(with)/median(without) - 1)
	}},
}

// perLayer computes the per-layer metrics of a traced run.
func (r *run) perLayer() map[string]metric {
	attempted, _ := r.counts()
	v := &layerView{r: r, spans: r.tr.snapshot(), ops: float64(attempted)}
	m := map[string]metric{}
	for _, d := range layerDefs {
		m[d.name] = metric{d.value(v), d.unit}
	}
	return m
}
