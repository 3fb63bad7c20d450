package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/decomp"
	"configsynth/internal/portfolio"
	"configsynth/internal/service"
	"configsynth/internal/spec"
	"configsynth/internal/wal"
)

// Layers are measured from outside: after a round's measured window the
// traced run replays a sample of the workload's inputs through each
// module's public functions, one span per call, in this process and on
// an otherwise idle machine. What these calls cannot separate (BCP from
// conflict analysis, fsync inside the service, ...) is listed in the
// README, not guessed.

// sample appends a per-op layer quantity that is not a span duration.
func (r *run) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// probeSamples is how many ops of a round are replayed: optimisation
// descents cost seconds each, status probes a tenth of one.
func probeSamples(mode string) int {
	if mode == "solve" {
		return 8
	}
	return 3
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// probeRequests replays the server's request path for the first few
// specs of a round: parse, validate, fingerprint, then — when the
// workload's requests are solved rather than answered from the cache —
// encode (the racing portfolio a worker builds) and search, and last
// rendering the result.
func (r *run) probeRequests(tr *tracer, texts, modes []string, results []*service.Result, solved bool) {
	for i := 0; i < len(texts) && i < probeSamples(modes[i]); i++ {
		id := r.opID()
		root := tr.start("probe.request", 0, id)
		var p *core.Problem
		var err error
		tr.timed("spec.parse", root, id, func() { p, err = spec.Parse(strings.NewReader(texts[i])) })
		if err != nil {
			tr.end(root)
			continue
		}
		tr.timed("spec.validate", root, id, func() { err = p.Validate() })
		tr.timed("spec.fingerprint", root, id, func() { spec.Fingerprint(p) })
		if solved {
			r.probeSolve(tr, root, id, p, modes[i])
		}
		if results[i] != nil {
			tr.timed("service.json_encode", root, id, func() { json.MarshalIndent(results[i], "", "  ") })
		}
		tr.end(root)
	}
}

// probeSolve encodes and searches one problem under the given span.
func (r *run) probeSolve(tr *tracer, root, id int, p *core.Problem, mode string) {
	var syn *portfolio.Solver
	var err error
	m0 := mallocs()
	tr.timed("core.encode", root, id, func() { syn, err = portfolio.NewRacing(p, 1) })
	if err != nil {
		return
	}
	r.sample("encode_allocs", float64(mallocs()-m0))

	t0 := time.Now()
	tr.timed("sat.search", root, id, func() {
		th := p.Thresholds
		ctx := context.Background()
		switch mode {
		case "min-cost":
			syn.MinCostContext(ctx, th.IsolationTenths, th.UsabilityTenths)
		case "max-isolation":
			syn.MaxIsolationContext(ctx, th.UsabilityTenths, th.CostBudget)
		case "max-usability":
			syn.MaxUsabilityContext(ctx, th.IsolationTenths, th.CostBudget)
		default:
			syn.SolveContext(ctx)
		}
	})
	st := syn.Stats()
	r.counters["probe_search_s"] += time.Since(t0).Seconds()
	r.counters["probe_conflicts"] += float64(st.Conflicts)
	r.counters["probe_propagations"] += float64(st.Propagations)
	r.sample("vars", float64(st.Vars))
	r.sample("clauses", float64(st.Clauses))
	r.sample("pb_terms", float64(st.PBTerms))
}

// hitOverhead answers a few already-solved specs twice from the cache:
// once over HTTP, once through Service.Submit in process. The
// difference is what the HTTP layer and the request parse add to a hit.
func (r *run) hitOverhead(c *client, n *node, texts, modes []string) {
	for i := 0; i < len(texts) && i < 16; i++ {
		p, err := spec.Parse(strings.NewReader(texts[i]))
		if err != nil {
			continue
		}
		t0 := time.Now()
		status, _, _, err := c.post(synthURL(n, modes[i]), "text/plain", texts[i])
		httpUS := float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil || status != 200 {
			continue
		}
		t0 = time.Now()
		job, err := n.svc.Submit(p, service.SubmitOptions{Mode: service.Mode(modes[i])})
		if err != nil {
			continue
		}
		<-job.Done()
		submitUS := float64(time.Since(t0).Nanoseconds()) / 1e3
		if res, _ := job.Result(); res != nil && res.Cached {
			r.sample("http_hit_us", httpUS)
			r.sample("submit_hit_us", submitUS)
		}
	}
}

// queueWaits reads how long sampled jobs sat in the queue from their
// event streams: the "started" event's t_ms is time since submission.
func (r *run) queueWaits(c *client, n *node, jobs []string) {
	for i := 0; i < len(jobs) && i < 32; i++ {
		resp, err := c.hc.Get(n.base + "/v1/jobs/" + jobs[i] + "?stream=1")
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 16<<20)
		for sc.Scan() {
			var e struct {
				Event string  `json:"event"`
				TMS   float64 `json:"t_ms"`
			}
			if json.Unmarshal(sc.Bytes(), &e) == nil && e.Event == "started" {
				r.sample("queue_wait_ms", e.TMS)
				break
			}
		}
		resp.Body.Close()
	}
}

// probeWhatif replays one slider sweep on a session the way the service
// drives it: one warm session, Retarget then Solve per point.
func (r *run) probeWhatif(tr *tracer, parent *core.Problem) {
	id := r.opID()
	var ses *portfolio.Solver
	var err error
	tr.timed("portfolio.new_session", 0, id, func() { ses, err = portfolio.NewSession(parent, 1) })
	if err != nil {
		return
	}
	for _, th := range sweepPoints(parent.Thresholds, 0) {
		id := r.opID()
		q := *parent
		q.Thresholds = th
		root := tr.start("probe.whatif", 0, id)
		tr.timed("portfolio.retarget", root, id, func() { err = ses.Retarget(&q) })
		if err == nil {
			// A session extracts every answer through a fresh canonical
			// synthesizer, so this span holds an encode as well as a search;
			// from outside the two cannot be told apart.
			tr.timed("portfolio.session_solve", root, id, func() { ses.SolveContext(context.Background()) })
			ses.ResetQueryState()
		}
		tr.end(root)
	}
}

// probeDecomp times what a decomposed solve does before and around its
// region solves: partition and split, then one fingerprint per region.
func (r *run) probeDecomp(tr *tracer, p *core.Problem) {
	for i := 0; i < 5; i++ {
		id := r.opID()
		root := tr.start("probe.decomp", 0, id)
		var subs []*decomp.Subproblem
		tr.timed("decomp.partition", root, id, func() {
			subs, _ = decomp.Split(p, decomp.Partition(p.Network, decomp.PartitionOptions{}))
		})
		tr.timed("decomp.fingerprint", root, id, func() {
			for _, s := range subs {
				spec.Fingerprint(s.Prob)
			}
		})
		tr.end(root)
	}
}

// decompSamples reads the region breakdown of one decomposed answer:
// the slowest freshly solved region is the critical path, their sum the
// total region CPU, and the rest of the op's wall time is overhead.
func (r *run) decompSamples(rec opRecord, res *service.Result) {
	if res == nil || res.Decomp == nil {
		return
	}
	var maxMS, sumMS float64
	solved := 0
	for _, reg := range res.Decomp.Regions {
		if reg.Escalated {
			r.counters["decomp_escalated"]++
		}
		if !reg.Cached {
			solved++
			sumMS += float64(reg.ElapsedMS)
			maxMS = max(maxMS, float64(reg.ElapsedMS))
		}
	}
	r.sample("decomp_regions", float64(len(res.Decomp.Regions)))
	if solved > 0 {
		r.sample("region_ms_max", maxMS)
		r.sample("region_ms_sum", sumMS)
	}
	r.sample("decomp_overhead_ms", rec.ms-maxMS)
}

// probeWAL appends records of the workload's own sizes — one submit and
// one result record per spec — to a scratch journal, with fsync off and
// on.
func (r *run) probeWAL(tr *tracer, specs []*specText, solved []*service.Result) {
	dir, err := os.MkdirTemp(r.cfg.outDir, "wal-")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	for _, v := range []struct {
		span string
		sync bool
		max  int
	}{{"wal.append", false, len(specs)}, {"wal.append_sync", true, 16}} {
		log, _, err := wal.Open(filepath.Join(dir, v.span), wal.Options{Sync: v.sync})
		if err != nil {
			continue
		}
		for k := 0; k < len(specs) && k < v.max; k++ {
			id := r.opID()
			submit := map[string]any{"id": "n1-j000001", "mode": "solve", "fp": "", "spec": specs[k].render(nil), "timeout_ms": 60000}
			result := map[string]any{"id": "n1-j000001", "state": "done", "mode": "solve", "fp": "", "result": solved[k]}
			tr.timed(v.span, 0, id, func() { log.Append("submit", submit) })
			tr.timed(v.span, 0, id, func() { log.Append("result", result) })
		}
		log.Close()
	}
}
