// Package portfolio implements parallel portfolio solving for
// ConfigSynth: one synthesis problem is answered by K independent
// solver instances whose searches are diversified (PRNG seed with a
// small random-decision fraction, initial phase polarity, restart
// schedule), and each satisfiability probe is raced across the K
// workers on goroutines. The first worker to reach a definitive answer
// (Sat or Unsat) wins the probe; the losers are cancelled cooperatively
// and rejoin before the next probe.
//
// The problem is encoded once. Every constructor builds one
// core.Template — the threshold-independent three quarters of the model,
// with no threshold guard in it and no search behind it — and takes a
// structural core.Template.Clone of it per worker; NewRacing then turns
// the template itself into the canonical synthesizer, and a session
// (session.go) keeps it pristine to clone one extractor per query, and
// its workers when the first descent needs them. Because the snapshot
// predates every guard and every search, a clone is state for state the
// synthesizer a second encode under the worker's configuration would
// have produced (same variable numbering, clause and watch order, PB
// constraint ids, root assignment), so encoding once changes no search
// and no result.
//
// Results are deterministic regardless of which worker wins a race:
//
//   - probe outcomes are used as statuses only, and Sat/Unsat is a
//     semantic property of the formula, identical for every worker;
//   - optimization queries run a central binary-search descent over
//     threshold guards, driven purely by those statuses;
//   - the final design (or unsat core) is always extracted by a
//     dedicated canonical synthesizer that never participates in races
//     and is never interrupted, so its model — and hence the reported
//     scores and pruned placements — depends only on the (unique)
//     optimum, not on race timing.
//
// The only caveat is conflict budgets: a probe reports Unknown only if
// every worker exhausts its budget, and an interrupted worker's learnt
// clauses depend on when the cancellation landed, which can in
// principle flip a later probe between "budget exhausted" and
// "answered". In the exact regime (budgets that do not bind, the
// default) results are bit-identical across runs and across K.
package portfolio

import (
	"fmt"
	"sync"
	"sync/atomic"

	"configsynth/internal/core"
	"configsynth/internal/faults"
	"configsynth/internal/sat"
	"configsynth/internal/smt"
)

// Solver answers synthesis queries against an encoded problem. With one
// worker it is a thin wrapper over core.Synthesizer (identical to the
// single-threaded path); with K > 1 workers it races diversified
// solvers per probe. It is not safe for concurrent use; it manages its
// own goroutines internally.
type Solver struct {
	prob  *core.Problem
	canon *core.Synthesizer   // canonical extraction engine, never raced
	work  []*core.Synthesizer // diversified raced workers

	// dead has one entry per raced worker (none on New's sequential
	// delegate) and marks those whose last probe panicked: a panic may
	// leave a solver's trail or clause database inconsistent, so the
	// worker is retired from all later races rather than trusted again.
	// panics counts panics the portfolio absorbed without failing the
	// query.
	dead   []bool
	panics atomic.Uint64

	// incumbent is the tightest threshold combination an optimization
	// descent has proven satisfiable so far; haveIncumbent gates it. When
	// a deadline truncates the descent, AnytimeDesign re-extracts the
	// feasible model at these thresholds instead of losing the work.
	incumbent     core.Thresholds
	haveIncumbent bool

	// tmpl is set on a persistent what-if solver (NewSession) and marks
	// it: canon is nil, designs/cores are extracted by a per-query clone
	// of the pristine template instead (see session.go), and the workers
	// are cloned from it by the first probe and then stay warm across
	// Retarget calls. family is the thresholds-zeroed fingerprint Retarget
	// validates against; extracted sums the search counters of the
	// extractors already dropped, which would otherwise vanish with them.
	// extractMu guards what a context watcher's goroutine reads while a
	// query runs: extract, the live per-query extractor it interrupts,
	// and the assignment that fills work.
	tmpl      *core.Template
	family    string
	extractMu sync.Mutex
	extract   *core.Synthesizer
	extracted core.ModelStats

	// onBound, when set, observes every improvement an optimization
	// descent proves: after each satisfiable probe the newly established
	// bound (isolation/usability tenths, or a cost value) is reported.
	// This is the anytime hook confserved streams to clients while a
	// Maximize-style query is still running. Only the engine path (built
	// via NewRacing) drives descents centrally, so only it emits bounds.
	onBound func(kind core.ThresholdKind, value int64)
}

// SetBoundObserver registers f to be called with every bound an
// optimization descent proves satisfiable, as (threshold kind, value)
// pairs: tenths of the 0–10 scale for isolation/usability, a budget
// value for cost. f runs on the goroutine driving the query and must be
// fast; nil unregisters. Descents only run centrally on Solvers built
// with NewRacing (any K); a delegate Solver (New with workers <= 1)
// optimizes inside internal/core and emits nothing.
func (s *Solver) SetBoundObserver(f func(kind core.ThresholdKind, value int64)) {
	s.onBound = f
}

// emitBound reports a newly proven bound to the observer, if any.
func (s *Solver) emitBound(kind core.ThresholdKind, value int64) {
	if s.onBound != nil {
		s.onBound(kind, value)
	}
}

// New returns a solver for p with the given worker count. workers <= 1
// yields the sequential solver, behaviourally identical to
// core.NewSynthesizer (today's default); workers >= 2 builds a racing
// portfolio with canonical extraction.
func New(p *core.Problem, workers int) (*Solver, error) {
	if workers <= 1 {
		canon, err := core.NewSynthesizer(p)
		if err != nil {
			return nil, err
		}
		return &Solver{prob: p, canon: canon}, nil
	}
	return NewRacing(p, workers)
}

// NewRacing always builds the portfolio engine, even with a single
// worker. The engine path is identical for every K — probes drive a
// central descent and a dedicated canonical synthesizer extracts every
// design — which is what makes K=1 and K=4 produce identical results.
// The price is one canonical final check per query. The problem is
// encoded once: the workers are clones of the template, which then
// becomes the canonical synthesizer itself.
func NewRacing(p *core.Problem, workers int) (*Solver, error) {
	tmpl, err := core.NewTemplate(p)
	if err != nil {
		return nil, err
	}
	work, err := cloneWorkers(tmpl, p.Thresholds, max(workers, 1))
	if err != nil {
		return nil, err
	}
	return &Solver{prob: p, canon: tmpl.Synthesizer(), work: work, dead: make([]bool, len(work))}, nil
}

// cloneWorkers clones n diversified workers from the template.
func cloneWorkers(tmpl *core.Template, th core.Thresholds, n int) ([]*core.Synthesizer, error) {
	work := make([]*core.Synthesizer, n)
	for i := range work {
		var err error
		if work[i], err = tmpl.Clone(th, WorkerConfig(i)); err != nil {
			return nil, fmt.Errorf("portfolio: worker %d: %w", i, err)
		}
	}
	if len(work) > 1 {
		// Clause sharing: losers' sharp learnt clauses flow to the other
		// workers at every race join (see shareClauses). Pointless with a
		// single worker, and the canonical synthesizer never participates
		// — its extraction must depend only on the formula, so its search
		// is never steered by race-timing-dependent imports.
		for _, w := range work {
			w.EnableClauseSharing()
		}
	}
	return work, nil
}

// WorkerConfig returns the diversification profile of worker i. Worker
// 0 is the reference configuration (pure activity-driven CDCL, Luby
// restarts, phase false), so a one-worker portfolio searches exactly
// like the default solver; higher workers alternate phase polarity and
// restart schedule and mix in 2% random decisions under distinct seeds.
func WorkerConfig(i int) smt.SolverConfig {
	if i == 0 {
		return smt.SolverConfig{}
	}
	cfg := smt.SolverConfig{
		Seed:            uint64(i) * 0x9E3779B97F4A7C15,
		RandomFreqMilli: 20,
		PhaseTrue:       i%2 == 1,
	}
	if i%4 >= 2 {
		cfg.Restart = smt.RestartGeometric
	}
	return cfg
}

// Workers returns the number of raced workers (0 in delegate mode).
func (s *Solver) Workers() int { return len(s.dead) }

// Problem returns the problem the solver currently targets (for a
// session, the problem of the most recent Retarget).
func (s *Solver) Problem() *core.Problem { return s.prob }

// liveWorkers returns the indices of workers that have not been retired
// by a panic.
func (s *Solver) liveWorkers() []int {
	live := make([]int, 0, len(s.work))
	for i := range s.work {
		if !s.dead[i] {
			live = append(live, i)
		}
	}
	return live
}

// probeWorker runs one worker's probe under a recover barrier: a panic
// inside the solver is returned as pval instead of unwinding through
// the race, so one poisoned instance cannot take the others — or the
// daemon — down with it.
func (s *Solver) probeWorker(i int, th core.Thresholds, limited bool) (st smt.Status, pval any) {
	defer func() {
		if r := recover(); r != nil {
			st, pval = smt.Unknown, r
		}
	}()
	if s.tmpl != nil {
		// Warm workers keep their learnt clauses across queries, but
		// search heuristics tuned to a previous threshold combination can
		// derail the next probe by orders of magnitude (saved phases
		// replay a stale model against a changed bound). Start every
		// session probe from fresh heuristics; the clause database is the
		// warm-start payoff.
		s.work[i].ResetSearchState()
	}
	return s.work[i].ProbeStatus(th, limited), nil
}

// PanicsRecovered returns the number of worker panics the portfolio
// absorbed: panics that retired a worker while surviving workers kept
// the query alive. A panic that leaves no worker standing is rethrown
// to the caller and not counted here.
func (s *Solver) PanicsRecovered() uint64 { return s.panics.Load() }

// raceStatus races one threshold probe across the live workers and
// returns the first definitive status, cancelling and rejoining the
// losers. If every live worker reports Unknown (budget exhausted),
// Unknown is returned. A worker that panics is retired from future
// races; only when every live worker panicked in the same race is the
// panic rethrown.
func (s *Solver) raceStatus(th core.Thresholds, limited bool) smt.Status {
	s.warm()
	if faults.Active() && faults.Fire(faults.PortfolioProbeInterrupt) {
		// Chaos hook: a spurious cancellation landing on a worker just as
		// the race launches — the descent must absorb the lost answer.
		for i := range s.work {
			if !s.dead[i] {
				s.work[i].Interrupt()
				break
			}
		}
	}
	live := s.liveWorkers()
	if len(live) == 0 {
		// Every worker has panicked in earlier probes; nothing can answer.
		panic("portfolio: all raced workers retired by panics")
	}
	if len(live) == 1 {
		st, pval := s.probeWorker(live[0], th, limited)
		if pval != nil {
			s.dead[live[0]] = true
			panic(pval)
		}
		return st
	}
	type outcome struct {
		status smt.Status
		worker int
		pval   any
	}
	ch := make(chan outcome, len(live))
	for _, i := range live {
		go func(i int) {
			st, pval := s.probeWorker(i, th, limited)
			ch <- outcome{st, i, pval}
		}(i)
	}
	status := smt.Unknown
	panicked := 0
	var lastPanic any
	for n := 0; n < len(live); n++ {
		out := <-ch
		if out.pval != nil {
			s.dead[out.worker] = true
			panicked++
			lastPanic = out.pval
			continue
		}
		if out.status != smt.Unknown && status == smt.Unknown {
			status = out.status
			// First definitive answer: cancel everyone else. Interrupt
			// is idempotent and harmless on workers already done.
			for _, j := range live {
				if j != out.worker {
					s.work[j].Interrupt()
				}
			}
		}
	}
	// All workers have rejoined; re-arm the survivors for the next probe
	// so a stale interrupt cannot leak into it.
	for _, i := range live {
		if !s.dead[i] {
			s.work[i].ClearInterrupt()
		}
	}
	if panicked == len(live) {
		// No survivors this race: the query cannot make progress, so the
		// panic escapes to the caller (the service's containment layer).
		panic(lastPanic)
	}
	s.panics.Add(uint64(panicked))
	s.shareClauses()
	return status
}

// shareClauses runs the learnt-clause exchange at a race-join point:
// every surviving worker's outgoing buffer (filled during the probe with
// its binary/low-LBD learnt clauses) is drained, and the union is
// imported into every other survivor before the next probe. All workers
// have rejoined when this runs, so the exchange is plain sequential
// code. Workers retired by a panic neither export (their clause store is
// suspect) nor import. Sharing never touches the canonical synthesizer:
// probe statuses are semantic (identical whichever clauses a worker
// carries), and designs/cores are always extracted canonically, so
// results stay bit-deterministic in the exact regime even though the
// shared set depends on where cancellations landed.
func (s *Solver) shareClauses() {
	if len(s.work) < 2 {
		return
	}
	var pool [][]sat.Lit
	for i, w := range s.work {
		if !s.dead[i] {
			pool = append(pool, w.DrainSharedClauses()...)
		}
	}
	if len(pool) == 0 {
		return
	}
	for i, w := range s.work {
		if !s.dead[i] {
			w.ImportSharedClauses(pool)
		}
	}
}

// Solve checks the problem's own thresholds. The satisfiability race
// provides the status; the design (or the unsat core) is then derived
// canonically, so the result does not depend on which worker won.
func (s *Solver) Solve() (*core.Design, error) {
	if s.Workers() == 0 {
		return s.canon.Solve()
	}
	if s.tmpl != nil {
		// Model-producing queries gain nothing from the status race: the
		// per-query canonical extraction re-decides satisfiability on its
		// own (design, core, and budget errors all come from it), so the
		// race would only add the warm workers' probe time on top. Go
		// straight to the canonical; the warm workers are kept for the
		// optimization descents, where probes outnumber extractions.
		return s.canonSolve()
	}
	if st := s.raceStatus(s.prob.Thresholds, false); st == smt.Unknown {
		return nil, core.ErrBudgetExceeded
	}
	return s.canonSolve()
}

// CheckAt checks satisfiability at the given thresholds (a what-if
// query) with a raced status and canonical extraction.
func (s *Solver) CheckAt(th core.Thresholds) (*core.Design, error) {
	if s.Workers() == 0 {
		return s.canon.CheckAt(th)
	}
	if s.tmpl != nil {
		// See Solve: the canonical extraction decides the status itself.
		return s.canonCheckAt(th)
	}
	if st := s.raceStatus(th, false); st == smt.Unknown {
		return nil, core.ErrBudgetExceeded
	}
	return s.canonCheckAt(th)
}

// descent runs the shared central binary search: feasible() must hold
// at lo already (or the caller handles infeasibility first), and
// probe(mid) reports whether the query is satisfiable when the searched
// threshold is tightened to mid. With maximize true the search finds
// the largest satisfiable value in [lo, hi]; otherwise the smallest.
// It returns the optimum and whether every probe was definitive.
func (s *Solver) descent(lo, hi int64, maximize bool, probe func(v int64) smt.Status) (int64, bool) {
	exact := true
	for lo < hi {
		var mid int64
		if maximize {
			mid = lo + (hi-lo+1)/2
		} else {
			mid = lo + (hi-lo)/2
		}
		switch probe(mid) {
		case smt.Sat:
			if maximize {
				lo = mid
			} else {
				hi = mid
			}
		case smt.Unknown:
			exact = false
			fallthrough
		default: // Unsat, or Unknown treated pessimistically
			if maximize {
				hi = mid - 1
			} else {
				lo = mid + 1
			}
		}
	}
	return lo, exact
}

// finish extracts the canonical design at th and stamps its exactness.
func (s *Solver) finish(th core.Thresholds, exact bool) (*core.Design, error) {
	d, err := s.canonCheckAt(th)
	if err != nil {
		return nil, err
	}
	d.Exact = exact
	return d, nil
}

// resetIncumbent discards the previous query's incumbent; each
// optimization call starts with no feasible model in hand.
func (s *Solver) resetIncumbent() { s.haveIncumbent = false }

// setIncumbent records th as proven satisfiable — a feasible model the
// query could fall back on if it is cut short.
func (s *Solver) setIncumbent(th core.Thresholds) { s.incumbent, s.haveIncumbent = th, true }

// AnytimeDesign extracts the feasible design at the best bound the last
// optimization descent proved before it was interrupted — the
// degrade-to-anytime path confserved takes when a job's deadline
// expires mid-descent. It reports false when the descent never reached
// a satisfiable probe (nothing to degrade to) or when re-extraction
// itself fails. The returned design has Exact=false.
func (s *Solver) AnytimeDesign() (*core.Design, bool) {
	if !s.haveIncumbent {
		return nil, false
	}
	// The interrupt that cut the descent short is sticky; re-arm before
	// the extraction check or it would immediately return Unknown.
	s.clearAll()
	d, err := s.canonAnytimeAt(s.incumbent)
	if err != nil {
		return nil, false
	}
	return d, true
}

// optimize is the racing descent behind every optimization query: probe
// base, which leaves the searched threshold at its loosest; on unsat
// report the canonical core; otherwise binary-search that threshold over
// [lo, hi], racing every probe, recording each satisfiable one as the
// anytime incumbent and reporting it to the bound observer; and extract
// the canonical design at the optimum.
func (s *Solver) optimize(base core.Thresholds, kind core.ThresholdKind, lo, hi int64, maximize bool) (*core.Design, error) {
	s.resetIncumbent()
	switch s.raceStatus(base, false) {
	case smt.Unknown:
		return nil, core.ErrBudgetExceeded
	case smt.Unsat:
		_, err := s.canonCheckAt(base) // canonical unsat core
		if err == nil {
			err = fmt.Errorf("portfolio: workers proved unsat but canonical check succeeded")
		}
		return nil, err
	}
	s.setIncumbent(base)
	best, exact := s.descent(lo, hi, maximize, func(v int64) smt.Status {
		th := withThreshold(base, kind, v)
		st := s.raceStatus(th, true)
		if st == smt.Sat {
			s.setIncumbent(th)
			s.emitBound(kind, v)
		}
		return st
	})
	return s.finish(withThreshold(base, kind, best), exact)
}

// withThreshold returns th with the threshold of the given kind set to v.
func withThreshold(th core.Thresholds, kind core.ThresholdKind, v int64) core.Thresholds {
	switch kind {
	case core.ThresholdIsolation:
		th.IsolationTenths = int(v)
	case core.ThresholdUsability:
		th.UsabilityTenths = int(v)
	case core.ThresholdCost:
		th.CostBudget = v
	}
	return th
}

// MaxIsolation computes the maximum achievable network isolation (0–10
// scale) subject to a usability threshold and a cost budget, as in the
// paper's Fig. 3 curves. With workers, each binary-search probe is
// raced and the winning status drives the descent.
func (s *Solver) MaxIsolation(usabilityTenths int, costBudget int64) (float64, *core.Design, error) {
	if s.Workers() == 0 {
		return s.canon.MaxIsolation(usabilityTenths, costBudget)
	}
	base := core.Thresholds{UsabilityTenths: usabilityTenths, CostBudget: costBudget}
	d, err := s.optimize(base, core.ThresholdIsolation, 0, 100, true)
	if err != nil {
		return 0, nil, err
	}
	return d.Isolation, d, nil
}

// MaxUsability computes the maximum achievable usability subject to an
// isolation threshold and a cost budget.
func (s *Solver) MaxUsability(isolationTenths int, costBudget int64) (float64, *core.Design, error) {
	if s.Workers() == 0 {
		return s.canon.MaxUsability(isolationTenths, costBudget)
	}
	base := core.Thresholds{IsolationTenths: isolationTenths, CostBudget: costBudget}
	d, err := s.optimize(base, core.ThresholdUsability, 0, 100, true)
	if err != nil {
		return 0, nil, err
	}
	return d.Usability, d, nil
}

// MinCost computes the minimum deployment budget that still satisfies
// the given isolation and usability thresholds.
func (s *Solver) MinCost(isolationTenths, usabilityTenths int) (int64, *core.Design, error) {
	if s.Workers() == 0 {
		return s.canon.MinCost(isolationTenths, usabilityTenths)
	}
	upper := s.costUpperBound()
	base := core.Thresholds{IsolationTenths: isolationTenths, UsabilityTenths: usabilityTenths, CostBudget: upper}
	d, err := s.optimize(base, core.ThresholdCost, 0, upper, false)
	if err != nil {
		return 0, nil, err
	}
	return d.Cost, d, nil
}

// Assist produces the slider-assistance table (paper Table III) at the
// given usability levels, using the problem's cost budget.
func (s *Solver) Assist(usabilityLevels []int) ([]core.AssistEntry, error) {
	return core.AssistTable(s.prob, usabilityLevels, s.MaxIsolation)
}

// Explain runs the paper's Algorithm 1 on the canonical synthesizer.
// Explanation is inherently sequential and model-extraction heavy, so
// it is not raced.
func (s *Solver) Explain() (*core.Explanation, error) {
	syn, err := s.extractor()
	if err != nil {
		return nil, err
	}
	defer s.release(syn)
	return syn.Explain()
}

// Stats returns the canonical model statistics with the dynamic search
// counters (conflicts, decisions, propagations, restarts, interrupts,
// random decisions) aggregated across the canonical solver and every
// worker — for a session, across the workers and every per-query
// extractor it has used.
func (s *Solver) Stats() core.ModelStats {
	var st core.ModelStats
	if s.canon != nil {
		st = s.canon.Stats()
	} else {
		// Session: no long-lived canonical. The template supplies the
		// model shape every clone starts from.
		st = s.tmpl.Stats()
	}
	for _, w := range s.work {
		st.AddSearch(w.Stats())
	}
	s.extractMu.Lock()
	st.AddSearch(s.extracted)
	s.extractMu.Unlock()
	return st
}
