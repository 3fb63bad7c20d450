package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/portfolio"
	"configsynth/internal/service"
)

// workloadDef names one workload. Names are fixed: later issues cite
// them. Every round builds a fresh system, so every round does the
// same work and set-up time is sampled once per round.
type workloadDef struct {
	name   string
	why    string
	rounds int
	// round runs one round into rd. tr is nil in an untraced run; probe
	// asks for the layer probes after the measured window.
	round func(r *run, rd *roundResult, tr *tracer, probe bool) error
}

var workloads = []workloadDef{
	{"cold_solve", "distinct specs, 0% cache hits: encode-bound (1-2 conflicts per op), plus parse, fingerprint, extraction and cache writes", 3, (*run).coldSolveRound},
	{"optimise", "optimisation descents of thousands of conflicts on small models: CDCL-bound, the only workload where search speed shows", 3, (*run).optimiseRound},
	{"hit_path", "repeats of solved specs with permuted lines, 100% cache hits: parse, canonicalise, fingerprint, LRU read and JSON only", 3, (*run).hitPathRound},
	{"whatif_sweep", "slider sweeps against a warm session: the same core/sat layers used incrementally with retained learnt clauses", 3, (*run).whatifRound},
	{"campus_batch", "100-host campus through mode=decomp: partition, split, region cache reads (budget variants) and writes (edit variants), stitch", 5, (*run).campusRound},
	{"cluster_durable", "3 journaled nodes on 2 cores: journal append, WAL ship and forwarding on the request path; per-hop and durability overhead, not compute scaling", 3, (*run).clusterRound},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Reference op counts per round, sized so that the measured windows of
// a run add up to about referenceSeconds on two cores.
const (
	refColdOps       = 67
	coldFiller       = 256 // tiny results that fill the LRU, so measured inserts evict
	refOptimiseOps   = 16
	refHitOps        = 5000
	refWhatifSweeps  = 5 // per client, 13 deltas each
	refCampusBudget  = 28
	refCampusEdits   = 14
	refClusterSpecs  = 60
	refClusterPasses = 120
	requestTimeout   = "60s"
)

// stashed is a response kept for checking after the measured window,
// so the checker's CPU time is not part of any latency or throughput.
type stashed struct {
	opID   int
	status int
	body   []byte
}

// post sends one request as client c and times it. The op span covers
// what the client waits for; its child covers the HTTP round trip.
func (r *run) post(tr *tracer, c *client, class, url, ctype, body string) (opRecord, stashed) {
	id := r.opID()
	root := tr.start("op", 0, id)
	rt := tr.start("http.roundtrip", root, id)
	t0 := time.Now()
	status, _, data, err := c.post(url, ctype, body)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(rt)
	tr.end(root)
	rec := opRecord{opID: id, class: class, ms: ms, traced: tr != nil, reqBytes: len(body), respBytes: len(data)}
	if err != nil {
		rec.fail("transport: %v", err)
	}
	return rec, stashed{opID: id, status: status, body: data}
}

// recordOf maps op IDs to the round's records: clients append records
// in completion order, so checks done after the window need a way back.
func recordOf(rd *roundResult) map[int]*opRecord {
	m := make(map[int]*opRecord, len(rd.ops))
	for k := range rd.ops {
		m[rd.ops[k].opID] = &rd.ops[k]
	}
	return m
}

func newClients() ([]*client, func()) {
	cs := make([]*client, numClients())
	for i := range cs {
		cs[i] = newClient()
	}
	return cs, func() {
		for _, c := range cs {
			c.close()
		}
	}
}

// singleStats reads /statsz of one node over its own connection.
func singleStats(n *node) (statser, func()) {
	c := newClient()
	return func() (map[string]float64, error) { return statsz(c, []*node{n}) }, c.close
}

// synthURL is the synchronous synthesis endpoint for a mode.
func synthURL(n *node, mode string) string {
	return n.base + "/v1/synthesize?mode=" + mode + "&timeout=" + requestTimeout
}

// specOps runs manifest instances against a fresh single node: each
// instance once, in seeded order, every answer checked against the
// manifest after the window. The lines of a spec that is going to be
// solved stay in generation order: link order decides variable
// numbering, and with it how long a search takes, so a permuted spec
// would not be the instance the manifest vetted.
func (r *run) specOps(rd *roundResult, tr *tracer, probe bool, ins []instance, filler int) error {
	start := time.Now()
	n, err := startSingle()
	if err != nil {
		return err
	}
	defer n.stop()
	clients, closeClients := newClients()
	defer closeClients()

	rng := r.rng(int64(len(r.rounds)))
	order := rng.Perm(len(ins))
	texts := make([]string, len(ins))
	for i, k := range order {
		texts[i] = ins[k].Spec.generate().render(nil)
	}
	if filler > 0 {
		if err := fillCache(n, clients, filler); err != nil {
			return err
		}
	}

	stats, done := singleStats(n)
	defer done()
	stash := make([]stashed, len(ins))
	err = r.measure(rd, start, stats, len(clients), sharedQueue(len(ins)), func(c, i int) opRecord {
		rec, st := r.post(r.half(tr, i), clients[c], classMain, synthURL(n, ins[order[i]].Mode), "text/plain", texts[i])
		stash[i] = st
		return rec
	})
	if err != nil {
		return err
	}

	results := make([]*service.Result, len(ins))
	recs := recordOf(rd)
	forEach(len(stash), func(i int) {
		st := stash[i]
		rec, in := recs[st.opID], ins[order[i]]
		if rec.err != "" {
			return
		}
		res, err := decodeResult(st.status, st.body)
		if err == nil {
			results[i] = res
			var p *core.Problem
			if p, err = in.Spec.problem(); err == nil {
				err = checkResult(tr, st.opID, p, res, expectation{mode: in.Mode, status: in.Status, optimum: in.Optimum})
			}
		}
		if err != nil {
			rec.fail("%s %+v: %v", in.Mode, in.Spec, err)
		}
	})

	if tr != nil {
		var jobs []string
		for _, res := range results {
			if res != nil {
				jobs = append(jobs, res.JobID)
			}
		}
		r.queueWaits(clients[0], n, jobs)
	}
	if probe {
		modes := make([]string, len(ins))
		for i, k := range order {
			modes[i] = ins[k].Mode
		}
		r.hitOverhead(clients[0], n, texts, modes)
		r.probeRequests(tr, texts, modes, results, true)
	}
	return nil
}

// fillCache posts count tiny distinct problems so the result cache
// starts the measured window full: every measured insert then evicts.
func fillCache(n *node, clients []*client, count int) error {
	errs := make(chan error, len(clients))
	for c := range clients {
		go func(c int) {
			for i := c; i < count; i += len(clients) {
				sp := specParams{GenSeed: 1, Hosts: 3, Routers: 1, Services: 1, IsoTenths: 10, UsaTenths: 50, CostBudget: int64(100 + i)}
				status, _, body, err := clients[c].post(synthURL(n, "solve"), "text/plain", sp.generate().render(nil))
				if err == nil && status != 200 {
					err = fmt.Errorf("filler %d: HTTP %d: %.200s", i, status, body)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for range clients {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (r *run) coldSolveRound(rd *roundResult, tr *tracer, probe bool) error {
	ins := r.man.Instances
	return r.specOps(rd, tr, probe, ins[:min(len(ins), r.scale(refColdOps))], coldFiller)
}

func (r *run) optimiseRound(rd *roundResult, tr *tracer, probe bool) error {
	ins := r.man.Instances
	return r.specOps(rd, tr, probe, ins[:min(len(ins), r.scale(refOptimiseOps))], 0)
}

// preload solves one spec on node n, verifies the answer, and fetches it
// again: the second, cached form is the reference every later repeat is
// compared with byte for byte.
func preload(c *client, n *node, in instance, text string) (cachedAnswer, *service.Result, error) {
	var none cachedAnswer
	status, _, body, err := c.post(synthURL(n, "solve"), "text/plain", text)
	if err != nil {
		return none, nil, err
	}
	res, err := decodeResult(status, body)
	if err != nil {
		return none, nil, err
	}
	p, err := in.Spec.problem()
	if err != nil {
		return none, nil, err
	}
	if err := checkResult(nil, 0, p, res, expectation{mode: "solve", status: in.Status}); err != nil {
		return none, nil, err
	}
	return referenceHit(c, n, p, res, text)
}

// referenceHit fetches the cached form of a verified answer and checks
// that it carries the same design.
func referenceHit(c *client, n *node, p *core.Problem, solved *service.Result, text string) (cachedAnswer, *service.Result, error) {
	var none cachedAnswer
	status, hdr, hit, err := c.post(synthURL(n, "solve"), "text/plain", text)
	if err != nil {
		return none, nil, err
	}
	cached, err := decodeResult(status, hit)
	if err != nil {
		return none, nil, err
	}
	head, _, rest, ok := splitJobID(hit)
	if !ok || !cached.Cached || hdr.Get("X-Cache") != "hit" {
		return none, nil, fmt.Errorf("a solved spec is not served from the cache")
	}
	if solved.Status == "sat" {
		a, _ := designFrom(p, solved.Design)
		b, err := designFrom(p, cached.Design)
		if err != nil || !sameDesign(a, b) {
			return none, nil, fmt.Errorf("cached design differs from the solved one")
		}
	}
	return cachedAnswer{head: head, rest: rest}, cached, nil
}

// hitPathRound solves the manifest's specs during set-up, then repeats
// them in seeded order with permuted lines: every measured op is a
// result-cache hit, checked byte for byte against the verified answer.
func (r *run) hitPathRound(rd *roundResult, tr *tracer, probe bool) error {
	start := time.Now()
	n, err := startSingle()
	if err != nil {
		return err
	}
	defer n.stop()
	clients, closeClients := newClients()
	defer closeClients()
	ins := r.man.Instances

	specs := make([]*specText, len(ins))
	refs := make([]cachedAnswer, len(ins))
	results := make([]*service.Result, len(ins))
	errs := make(chan error, len(clients))
	for c := range clients {
		go func(c int) {
			for i := c; i < len(ins); i += len(clients) {
				specs[i] = ins[i].Spec.generate()
				var err error
				if refs[i], results[i], err = preload(clients[c], n, ins[i], specs[i].render(nil)); err != nil {
					errs <- fmt.Errorf("hit_path set-up, spec %d: %w", i, err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	for range clients {
		if err := <-errs; err != nil {
			return err
		}
	}

	// Every spec is repeated equally often, so every seed sends the same
	// multiset of requests; the seed decides the order.
	ops := r.scale(refHitOps)
	picks := make([]int, ops)
	rng := r.rng(int64(len(r.rounds)))
	for i := range picks {
		picks[i] = i % len(ins)
	}
	rng.Shuffle(ops, func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	// One generator per client: rand.Rand is not safe for concurrent use.
	shuffle := make([]*rand.Rand, len(clients))
	for c := range shuffle {
		shuffle[c] = r.rng(int64(100*(c+1) + len(r.rounds)))
	}
	stats, done := singleStats(n)
	defer done()
	err = r.measure(rd, start, stats, len(clients), ownQueues(ops, len(clients)), func(c, i int) opRecord {
		k := picks[i]
		rec, st := r.post(r.half(tr, i), clients[c], classMain, synthURL(n, "solve"), "text/plain", specs[k].render(shuffle[c]))
		if rec.err == "" {
			if _, err := refs[k].matches(st.status, st.body); err != nil {
				rec.fail("hit of %+v: %v", ins[k].Spec, err)
			}
		}
		return rec
	})
	if err != nil {
		return err
	}
	if probe {
		texts, modes := make([]string, len(ins)), make([]string, len(ins))
		for i := range ins {
			texts[i], modes[i] = specs[i].render(nil), "solve"
		}
		r.hitOverhead(clients[0], n, texts, modes)
		r.probeRequests(tr, texts, modes, results, false)
	}
	return nil
}

// whatifRound gives each client one parent job and posts the slider
// sweep around it as threshold deltas, the cost budget shifted by one
// per sweep so that no delta is a result-cache hit.
func (r *run) whatifRound(rd *roundResult, tr *tracer, probe bool) error {
	start := time.Now()
	n, err := startSingle()
	if err != nil {
		return err
	}
	defer n.stop()
	clients, closeClients := newClients()
	defer closeClients()
	nc := min(len(clients), len(r.man.Parents))
	rng := r.rng(int64(len(r.rounds)))
	sweeps := min(r.scale(refWhatifSweeps), whatifSweeps)

	type delta struct {
		th     core.Thresholds
		status string
		body   string
		first  bool // part of the sweep compared with from-scratch solves
	}
	probs := make([]*core.Problem, nc)
	deltas := make([][]delta, nc)
	for c := 0; c < nc; c++ {
		par := r.man.Parents[c]
		if probs[c], err = par.Spec.problem(); err != nil {
			return err
		}
		status, _, body, err := clients[c].post(synthURL(n, "solve"), "text/plain", par.Spec.generate().render(nil))
		if err != nil {
			return err
		}
		res, err := decodeResult(status, body)
		if err == nil {
			err = checkResult(nil, 0, probs[c], res, expectation{mode: "solve", status: "sat"})
		}
		if err != nil {
			return fmt.Errorf("whatif parent %d: %w", c, err)
		}
		for s := 0; s < sweeps; s++ {
			pts := sweepPoints(probs[c].Thresholds, s)
			for _, k := range rng.Perm(len(pts)) {
				th := pts[k]
				deltas[c] = append(deltas[c], delta{th: th, status: par.Statuses[s][k], first: s == 0 && len(r.rounds) == 0,
					body: fmt.Sprintf(`{"parent":%q,"delta":{"isolation_tenths":%d,"usability_tenths":%d,"cost_budget":%d}}`,
						res.JobID, th.IsolationTenths, th.UsabilityTenths, th.CostBudget)})
			}
		}
	}

	perClient := len(deltas[0])
	stash := make([][]stashed, nc)
	for c := range stash {
		stash[c] = make([]stashed, perClient)
	}
	stats, done := singleStats(n)
	defer done()
	url := n.base + "/v1/whatif?timeout=" + requestTimeout
	err = r.measure(rd, start, stats, nc, ownQueues(perClient*nc, nc), func(c, i int) opRecord {
		rec, st := r.post(r.half(tr, i/nc), clients[c], classMain, url, "application/json", deltas[c][i/nc].body)
		stash[c][i/nc] = st
		return rec
	})
	if err != nil {
		return err
	}

	recs := recordOf(rd)
	forEach(nc*perClient, func(i int) {
		c, k := i/perClient, i%perClient
		st, d := stash[c][k], deltas[c][k]
		rec := recs[st.opID]
		if rec.err != "" {
			return
		}
		q := *probs[c]
		q.Thresholds = d.th
		res, err := decodeResult(st.status, st.body)
		if err == nil {
			err = checkResult(tr, st.opID, &q, res, expectation{mode: "solve", status: d.status})
		}
		if err == nil && d.first && res.Status == "sat" {
			err = sameAsScratch(&q, res)
		}
		if err != nil {
			rec.fail("whatif %+v: %v", d.th, err)
		}
	})
	if probe {
		r.probeWhatif(tr, probs[0])
	}
	return nil
}

// sameAsScratch solves q from scratch on a sequential solver and
// compares the what-if answer with it bit for bit.
func sameAsScratch(q *core.Problem, res *service.Result) error {
	syn, err := portfolio.New(q, 1)
	if err != nil {
		return err
	}
	want, err := syn.SolveContext(context.Background())
	if err != nil {
		return fmt.Errorf("from-scratch solve: %w", err)
	}
	got, err := designFrom(q, res.Design)
	if err != nil {
		return err
	}
	if !sameDesign(got, want) {
		return fmt.Errorf("what-if design differs from the from-scratch solve")
	}
	return nil
}

// campusRound submits the campus base problem cold, then budget-only
// variants (every region served from the region cache) and edit
// variants (one department re-solved), in process: the wire grammar is
// all-pairs only and cannot express sparse cross-department flows.
func (r *run) campusRound(rd *roundResult, tr *tracer, probe bool) error {
	start := time.Now()
	camp := r.man.Campus
	base, err := camp.problem()
	if err != nil {
		return err
	}
	svc := service.New(service.Config{Workers: 2, SolverWorkers: 1})
	defer svc.Close()

	type variant struct {
		class string
		prob  *core.Problem
		cost  int64
	}
	var variants []variant
	for i := 0; i < r.scale(refCampusBudget); i++ {
		q := *base
		q.Thresholds.CostBudget += int64(1 + i)
		variants = append(variants, variant{classMain, &q, camp.Cost})
	}
	for i := 0; i < min(r.scale(refCampusEdits), len(camp.Edits)); i++ {
		q, err := withEdit(base, camp.Edits[i])
		if err != nil {
			return err
		}
		variants = append(variants, variant{classDirty, q, camp.Edits[i].Cost})
	}
	r.rng(int64(len(r.rounds))).Shuffle(len(variants), func(i, j int) { variants[i], variants[j] = variants[j], variants[i] })
	variants = append([]variant{{classCold, base, camp.Cost}}, variants...)

	// The cold base goes first and alone — first_result_ms is what a user
	// waits for before any region is cached — so nobody is handed op 1
	// before op 0 is done.
	var cold sync.WaitGroup
	cold.Add(1)
	queue := sharedQueue(len(variants))
	next := func(c int) (int, bool) {
		i, ok := queue(c)
		if ok && i > 0 {
			cold.Wait()
		}
		return i, ok
	}
	results := make([]*service.Result, len(variants))
	opIDs := make([]int, len(variants))
	stats := func() (map[string]float64, error) { return countersOf(nodeStats{Stats: svc.Stats()}, ""), nil }
	err = r.measure(rd, start, stats, numClients(), next, func(c, i int) opRecord {
		id, tr := r.opID(), r.half(tr, i)
		opIDs[i] = id
		root := tr.start("op", 0, id)
		t0 := time.Now()
		job, err := svc.Submit(variants[i].prob, service.SubmitOptions{Mode: service.ModeDecomp})
		if err == nil {
			<-job.Done()
			results[i], err = job.Result()
		}
		rec := opRecord{opID: id, class: variants[i].class, traced: tr != nil, ms: float64(time.Since(t0).Nanoseconds()) / 1e6}
		tr.end(root)
		if err != nil {
			rec.fail("campus variant %d: %v", i, err)
		}
		if i == 0 {
			cold.Done()
		}
		return rec
	})
	if err != nil {
		return err
	}

	recs := recordOf(rd)
	forEach(len(variants), func(i int) {
		rec, v := recs[opIDs[i]], variants[i]
		if rec.err != "" {
			return
		}
		if err := checkResult(tr, opIDs[i], v.prob, results[i], expectation{mode: "decomp", status: "sat", optimum: float64(v.cost)}); err != nil {
			rec.fail("campus %s variant: %v", v.class, err)
		}
	})
	for i := range variants {
		if rec := recs[opIDs[i]]; rec.err == "" {
			r.decompSamples(*rec, results[i])
		}
	}
	if probe {
		r.probeDecomp(tr, base)
	}
	return nil
}

// clusterRound starts three journaled nodes, pins the clients to n1 and
// n2, solves the manifest's small specs once cold and then repeats them
// warm in seeded order.
func (r *run) clusterRound(rd *roundResult, tr *tracer, probe bool) error {
	start := time.Now()
	dir, err := os.MkdirTemp(r.cfg.outDir, "cluster-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	nodes, err := startCluster(dir)
	if err != nil {
		return err
	}
	defer stopNodes(nodes)
	clients, closeClients := newClients()
	defer closeClients()
	ins := r.man.Instances
	ins = ins[:min(len(ins), r.scale(refClusterSpecs))]
	rng := r.rng(int64(len(r.rounds)))

	specs := make([]*specText, len(ins))
	probs := make([]*core.Problem, len(ins))
	for i := range ins {
		specs[i] = ins[i].Spec.generate()
		if probs[i], err = ins[i].Spec.problem(); err != nil {
			return err
		}
	}
	// The cold pass in seeded order, then the warm passes.
	picks := rng.Perm(len(ins))
	for p := r.scale(refClusterPasses); p > 0; p-- {
		picks = append(picks, rng.Perm(len(ins))...)
	}
	shuffle := make([]*rand.Rand, len(clients))
	for c := range shuffle {
		shuffle[c] = r.rng(int64(100*(c+1) + len(r.rounds)))
	}

	// A spec's cold answer is verified where it arrives (these problems
	// are tiny), its first warm answer must decode to the same design and
	// becomes the byte-for-byte reference of the later ones. No warm op
	// is handed out before the cold pass is over.
	var cold sync.WaitGroup
	cold.Add(len(ins))
	queue := sharedQueue(len(picks))
	next := func(c int) (int, bool) {
		i, ok := queue(c)
		if ok && i >= len(ins) {
			cold.Wait()
		}
		return i, ok
	}
	var mu sync.Mutex
	solved := make([]*service.Result, len(ins))
	refs := make([]*cachedAnswer, len(ins))
	statsClient := newClient()
	defer statsClient.close()
	stats := func() (map[string]float64, error) { return statsz(statsClient, nodes) }

	err = r.measure(rd, start, stats, len(clients), next, func(c, i int) opRecord {
		k, pinned := picks[i], nodes[c%2]
		if i < len(ins) {
			defer cold.Done()
			rec, st := r.post(r.half(tr, i), clients[c], classCold, synthURL(pinned, "solve"), "text/plain", specs[k].render(nil))
			if rec.err == "" {
				res, err := decodeResult(st.status, st.body)
				if err == nil {
					err = checkResult(tr, st.opID, probs[k], res, expectation{mode: "solve", status: ins[k].Status})
				}
				if err != nil {
					rec.fail("cold %+v: %v", ins[k].Spec, err)
				}
				solved[k] = res
			}
			return rec
		}
		rec, st := r.post(r.half(tr, i), clients[c], classMain, synthURL(pinned, "solve"), "text/plain", specs[k].render(shuffle[c]))
		if rec.err != "" {
			return rec
		}
		mu.Lock()
		ref := refs[k]
		mu.Unlock()
		var id string
		var err error
		if ref == nil {
			id, ref, err = firstWarm(probs[k], solved[k], st)
			mu.Lock()
			refs[k] = ref
			mu.Unlock()
		} else {
			id, err = ref.matches(st.status, st.body)
		}
		if err != nil {
			rec.fail("warm %+v: %v", ins[k].Spec, err)
		}
		rec.hop = !strings.HasPrefix(id, pinned.id+"-")
		return rec
	})
	if err != nil {
		return err
	}
	r.shipDrain(rd, stats)
	if probe {
		r.probeWAL(tr, specs, solved)
	}
	return nil
}

// firstWarm checks a spec's first repeat against its verified cold
// answer and turns it into the reference for the later repeats.
func firstWarm(p *core.Problem, solved *service.Result, st stashed) (string, *cachedAnswer, error) {
	res, err := decodeResult(st.status, st.body)
	if err != nil {
		return "", nil, err
	}
	head, id, rest, ok := splitJobID(st.body)
	if !ok || !res.Cached {
		return id, nil, fmt.Errorf("repeat was not served from a cache")
	}
	if solved == nil || res.Status != solved.Status {
		return id, nil, fmt.Errorf("repeat answers %q, the cold pass did not", res.Status)
	}
	if res.Status == "sat" {
		a, _ := designFrom(p, solved.Design)
		b, err := designFrom(p, res.Design)
		if err != nil || !sameDesign(a, b) {
			return id, nil, fmt.Errorf("cached design differs from the cold answer")
		}
	}
	return id, &cachedAnswer{head: head, rest: rest}, nil
}

// shipDrain waits until every follower has acknowledged every journal
// byte and records how long that took after the window closed.
func (r *run) shipDrain(rd *roundResult, stats statser) {
	deadline := rd.end.Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := stats()
		if err == nil && st["replica_lag_bytes"] == 0 {
			rd.drainMS = float64(time.Since(rd.end).Nanoseconds()) / 1e6
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	r.notes = append(r.notes, "followers still lagging 10s after the last op")
}
