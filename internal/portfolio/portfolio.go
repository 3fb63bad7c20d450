// Package portfolio answers synthesis queries (core.Query) against one
// encoded problem, in one of two shapes.
//
// The sequential arm (New with at most one worker) is one long-lived
// incremental core.Synthesizer: every query runs on it, an optimisation
// descends by its own models (a satisfiable probe jumps the bound to
// what the model reached), and later queries build on what earlier ones
// learnt. Decomposition's width-1 region solves, the experiments'
// incremental sweeps and refcheck's reference run on it.
//
// The engine holds one core.Template — the threshold-independent three
// quarters of the model, with no threshold guard in it and no search
// behind it. NewSession and NewRacing build the same engine; they differ
// in who spends the template. Two kinds of synthesizer do the work:
//
//   - Every design, unsat core, anytime incumbent and explanation is
//     extracted by a synthesizer the engine's one pool (get, put) hands
//     out for that one question under the problem's own solver
//     configuration and takes back afterwards. On a session engine
//     (NewSession) it is a clone of the pristine template for every
//     question; on a one-shot engine (NewRacing) the canonical question
//     is handed the template itself, spent (core.Template.Synthesizer),
//     and another question encodes the problem afresh. An optimisation's
//     attempt (below) is a clone on both, so that a one-shot engine
//     whose attempt does not answer still has its template to extract
//     from. Either way the synthesizer predates every guard and every
//     search, so it is state for state what a fresh encode would have
//     built, and an answer depends only on the question, never on the
//     engine's history or on which constructor built it.
//   - An optimisation's probes are raced as statuses across K diversified
//     workers (PRNG seed with a small random-decision fraction, initial
//     phase polarity, restart schedule), cloned by the first race and
//     kept, learnt clauses included. The first worker to reach Sat or
//     Unsat wins the probe; the losers are cancelled cooperatively,
//     rejoin and are re-armed — one race at every K, a lone worker
//     included. Workers share nothing: every clause a worker holds is
//     one it derived itself. core.Query.Bisect drives the descent from
//     those statuses: a cheap pass under a few conflicts a probe, then
//     the canonical question asked once at the bound it left — one
//     search, never replayed — whose Sat design is the answer, and
//     otherwise full probes and the canonical extraction at their
//     optimum (optimise).
//
// A plain check never races: its canonical extraction decides
// satisfiability itself, so a raced status would only be computed twice.
// A NewSession engine somebody keeps and Retargets at another threshold
// combination of the same problem family is a what-if session.
//
// Results are deterministic regardless of which worker wins a race:
// Sat/Unsat is a semantic property of the formula, identical for every
// worker, and models come from the canonical synthesizer only, which
// never races and is interrupted only by the caller's context. The only
// caveat is conflict budgets: a probe reports Unknown only if every
// worker exhausts its budget, and an interrupted worker's learnt clauses
// depend on when the cancellation landed, which can in principle flip a
// later probe between "budget exhausted" and "answered". In the exact
// regime (budgets that do not bind, the default) results are
// bit-identical across runs, across K, and between a warm engine and a
// fresh one.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"configsynth/internal/core"
	"configsynth/internal/faults"
	"configsynth/internal/sat"
	"configsynth/internal/smt"
)

// Solver answers synthesis queries against an encoded problem: the
// sequential arm or the engine (see the package comment). It is not safe
// for concurrent use; it manages its own goroutines internally.
type Solver struct {
	prob   *core.Problem
	family string // Family's cache

	// seq is the sequential arm's one synthesizer, which every query
	// runs on; nil on an engine.
	seq *core.Synthesizer

	// tmpl is the engine's encoding; work holds the diversified raced
	// workers cloned from it by the first race (warm), nil until then;
	// shape is tmpl's Stats, which a spent template no longer answers.
	tmpl  *core.Template
	work  []*core.Synthesizer
	shape core.ModelStats

	// The pool (get and put, session.go) hands out every other
	// synthesizer of an engine: one per question, built from tmpl and
	// dropped when the question is answered. live holds those out now —
	// the sequential arm's seq, for life — so that a context watcher can
	// interrupt them. extracted sums the search of the questions that
	// answered and probed that of the ones that did not, which only
	// bounded a descent: like the raced workers' search, probed depends
	// on where a race's cancellations landed; extracted does not. A
	// one-shot engine (NewRacing) hands out tmpl itself for its canonical
	// question, and spent says the last one did: the next use of tmpl
	// encodes prob afresh first (template). A session keeps the last
	// question's synthesizer as its spare, only so that the next one is
	// built in its memory; nothing reads its state. canonMu guards what a
	// context watcher's goroutine reads while a query runs: live, spent
	// and the tallies with it, and the assignment that fills work.
	canonMu           sync.Mutex
	live              []*core.Synthesizer
	extracted, probed sat.Counters
	oneShot           bool
	spent             bool
	spare             *core.Synthesizer

	// dead has one entry per raced worker and marks those whose last
	// probe panicked: a panic may leave a solver's trail or clause
	// database inconsistent, so the worker is retired from all later races
	// rather than trusted again. panics counts panics the portfolio
	// absorbed without failing the query.
	dead   []bool
	panics atomic.Uint64

	// incumbent is the tightest threshold combination the last
	// optimisation descent proved satisfiable, nil before the first. When
	// a deadline truncates the descent, AnytimeDesign re-extracts the
	// feasible model at these thresholds instead of losing the work.
	incumbent *core.Thresholds

	// onBound, when set, observes every improvement an optimisation
	// descent proves: after each satisfiable probe the newly established
	// bound (isolation/usability tenths, or a cost value) is reported.
	// This is the anytime hook confserved streams to clients while a
	// query is still running.
	onBound func(kind core.ThresholdKind, value int64)

	// ctx is the context of the query guard is running, nil between
	// queries (stopped).
	ctx context.Context
}

// SetBoundObserver registers f to be called with every bound an
// optimisation descent proves satisfiable, as (threshold kind, value)
// pairs: tenths of the 0–10 scale for isolation/usability, a budget
// value for cost. f runs on the goroutine driving the query and must be
// fast; nil unregisters. Only an engine drives its descents here; the
// sequential arm optimises inside internal/core and emits nothing.
func (s *Solver) SetBoundObserver(f func(kind core.ThresholdKind, value int64)) {
	s.onBound = f
}

// New returns a solver for p with the given worker count. workers <= 1
// yields the sequential arm, behaviourally identical to
// core.NewSynthesizer; workers >= 2 the engine NewSession builds.
func New(p *core.Problem, workers int) (*Solver, error) {
	if workers <= 1 {
		seq, err := core.NewSynthesizer(p)
		if err != nil {
			return nil, err
		}
		return &Solver{prob: p, seq: seq, live: []*core.Synthesizer{seq}}, nil
	}
	return NewSession(p, workers)
}

// NewSession always builds the engine, even with a single worker
// (workers < 1 is treated as 1), and keeps its template pristine for as
// many questions as it is asked: a what-if session Retargeted across
// the threshold variants of one problem family, or any caller with more
// than one query. The engine path is identical for every K — raced
// statuses drive a central descent and a canonical synthesizer extracts every
// design — which is what makes K=1 and K=4 produce identical results
// and lets the descent stream its bounds. The problem is encoded once,
// here; the workers are cloned by the first race.
func NewSession(p *core.Problem, workers int) (*Solver, error) { return newEngine(p, workers, false) }

// NewRacing builds the engine for a caller that asks it one question:
// the same engine as NewSession, answering every query identically,
// counters included, but its canonical question searches the template
// itself instead of a clone of it, so the model is held once. A later
// question encodes the problem again first; a caller with several
// builds NewSession.
func NewRacing(p *core.Problem, workers int) (*Solver, error) { return newEngine(p, workers, true) }

// newEngine encodes p's template and builds the engine around it.
func newEngine(p *core.Problem, workers int, oneShot bool) (*Solver, error) {
	tmpl, err := core.NewTemplate(p)
	if err != nil {
		return nil, err
	}
	return &Solver{prob: p, tmpl: tmpl, shape: tmpl.Stats(), oneShot: oneShot, dead: make([]bool, max(workers, 1))}, nil
}

// cloneWorkers clones the engine's diversified workers from its
// template. Each keeps its own learnt clauses from race to race and
// receives none from its siblings.
func (s *Solver) cloneWorkers() ([]*core.Synthesizer, error) {
	tmpl, err := s.template()
	if err != nil {
		return nil, err
	}
	work := make([]*core.Synthesizer, len(s.dead))
	for i := range work {
		if work[i], err = tmpl.Clone(s.prob.Thresholds, WorkerConfig(i)); err != nil {
			return nil, fmt.Errorf("portfolio: worker %d: %w", i, err)
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

// Workers returns the number of raced workers (0 on the sequential arm).
func (s *Solver) Workers() int { return len(s.dead) }

// Problem returns the problem the solver currently targets (that of the
// most recent Retarget).
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
func (s *Solver) probeWorker(i int, ask func(*core.Synthesizer) smt.Status) (st smt.Status, pval any) {
	defer func() {
		if r := recover(); r != nil {
			st, pval = smt.Unknown, r
		}
	}()
	return ask(s.work[i]), nil
}

// PanicsRecovered returns the number of worker panics the portfolio
// absorbed: panics that retired a worker while surviving workers kept
// the query alive. A panic that leaves no worker standing is rethrown
// to the caller and not counted here.
func (s *Solver) PanicsRecovered() uint64 { return s.panics.Load() }

// raceStatus races one status probe, ask, across the live workers and
// returns the first definitive status, cancelling and rejoining the
// losers and re-arming the survivors. If every live worker reports
// Unknown (budget exhausted), Unknown is returned. A worker that panics
// is retired from future races; only when every live worker panicked in
// the same race is the panic rethrown.
func (s *Solver) raceStatus(ask func(w *core.Synthesizer) smt.Status) smt.Status {
	if s.stopped() {
		return smt.Unknown
	}
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
	type outcome struct {
		status smt.Status
		worker int
		pval   any
	}
	ch := make(chan outcome, len(live))
	for _, i := range live {
		go func(i int) {
			st, pval := s.probeWorker(i, ask)
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
	return status
}

// cheapProbeBudget is the conflict budget of an optimisation's cheap
// pass, or Options.ProbeBudget where that is tighter: enough to refute a
// value past the optimum, which the flow theory's counting bound closes
// at the root, and far too little for a satisfiable probe near it. A
// variable only so that a test can force the fallback.
var cheapProbeBudget int64 = 64

// optimise is the engine's descent behind every optimisation query: race
// the held thresholds with the free one at its loosest; on unsat report
// the canonical core; otherwise bisect the free threshold
// (core.Query.Bisect). Its cheap pass races probes under
// cheapProbeBudget and leaves the tightest value it could not refute;
// attempt decides that value, and a Sat there is the optimum. Otherwise
// the full probes race what is left under the probe budget. The design
// is the canonical attempt's, or the canonical synthesizer extracts it
// at the optimum. Every value proven satisfiable, the optimum included,
// becomes the anytime incumbent and goes to the bound observer.
// Heuristics carry from probe to probe on the raced workers: they are
// reset when the engine is retargeted and where the full probes take
// over from the cheap pass, never between two full probes.
func (s *Solver) optimise(q core.Query) (*core.Design, error) {
	s.incumbent = nil
	var from int64 // the loosest value: slider 0, or a budget that buys everything
	if q.Optimise == core.ThresholdCost {
		tmpl, err := s.template()
		if err != nil {
			return nil, err
		}
		from = tmpl.CostUpperBound()
	}
	base := q.Thresholds.With(q.Optimise, from)
	switch s.raceStatus(func(w *core.Synthesizer) smt.Status { return w.ProbeStatus(base, false) }) {
	case smt.Unknown:
		return nil, core.ErrBudgetExceeded
	case smt.Unsat:
		if _, err := s.checkAt(base); err != nil {
			return nil, err // the canonical unsat core
		}
		return nil, errors.New("portfolio: workers proved unsat but canonical check succeeded")
	}
	s.incumbent = &base
	reported := false
	// proved records a satisfiable v as the incumbent and reports it,
	// once; it passes st through.
	proved := func(v int64, st smt.Status) smt.Status {
		th := q.Thresholds.With(q.Optimise, v)
		if st != smt.Sat || reported && *s.incumbent == th {
			return st
		}
		s.incumbent, reported = &th, true
		if s.onBound != nil {
			s.onBound(q.Optimise, v)
		}
		return st
	}
	raced := func(v int64, cheap bool) smt.Status {
		th := q.Thresholds.With(q.Optimise, v)
		return proved(v, s.raceStatus(func(w *core.Synthesizer) smt.Status {
			if cheap {
				return w.ProbeStatusWithin(th, cheapProbeBudget)
			}
			return w.ProbeStatus(th, true)
		}))
	}
	best, d, exact := q.Bisect(from, core.Probes{
		Full:  func(v int64) (smt.Status, *core.Design) { return raced(v, false), nil },
		Cheap: func(v int64) smt.Status { return raced(v, true) },
		Attempt: func(v int64) (smt.Status, *core.Design) {
			st, d := s.attempt(q.Thresholds.With(q.Optimise, v))
			if st != smt.Sat {
				// The full probes take over. They keep what the cheap pass
				// learnt, not where its aborted searches left the phases
				// and activities: from there a probe that full probes alone
				// settle in thousands of conflicts can take 10^5.
				s.resetHeuristics()
			}
			return proved(v, st), d
		},
	})
	if d == nil {
		var err error
		if d, err = s.checkAt(q.Thresholds.With(q.Optimise, best)); err != nil {
			return nil, err
		}
	}
	proved(best, smt.Sat)
	d.Exact = exact
	return d, nil
}

// attempt asks the canonical question once, at th, the bound an
// optimisation's cheap pass left open, under the probe budget
// (core.Synthesizer.AttemptAt), and returns the design when it says Sat:
// the design checkAt would extract there, so it is never searched for
// again. It asks it on a clone from the pool, on a one-shot engine too,
// whose template then stays unspent for the extraction a fallback needs.
// The search counts as extracted if it answers and as probed if not. An
// error (a template that no longer encodes or a clone that outgrows its
// arena) is Unknown, and the extraction meets it again.
func (s *Solver) attempt(th core.Thresholds) (st smt.Status, d *core.Design) {
	syn, err := s.get(false)
	if err != nil {
		return smt.Unknown, nil
	}
	defer func() { s.put(syn, st == smt.Sat) }()
	return syn.AttemptAt(th)
}

// checkAt is the canonical check of all three thresholds.
func (s *Solver) checkAt(th core.Thresholds) (d *core.Design, err error) {
	err = s.canonical(func(syn *core.Synthesizer) (err error) {
		d, err = syn.CheckAt(th)
		return err
	})
	return d, err
}

// AnytimeDesign extracts the feasible design at the best bound the last
// optimisation descent proved before it was interrupted — the
// degrade-to-anytime path confserved takes when a job's deadline
// expires mid-descent. It reports false when the descent never reached
// a satisfiable probe (nothing to degrade to) or when re-extraction
// itself fails. The returned design has Exact=false.
func (s *Solver) AnytimeDesign() (d *core.Design, ok bool) {
	if s.incumbent == nil {
		return nil, false
	}
	// The interrupt that cut the descent short is sticky; re-arm before
	// the extraction check or it would immediately return Unknown.
	s.clearAll()
	err := s.canonical(func(syn *core.Synthesizer) (err error) {
		d, err = syn.AnytimeAt(*s.incumbent)
		return err
	})
	return d, err == nil
}

// Solve checks the problem's own thresholds.
func (s *Solver) Solve() (*core.Design, error) { return s.SolveContext(context.Background()) }

// SolveContext is Solve bounded by ctx: cancellation or deadline expiry
// interrupts the solvers cooperatively and returns ctx.Err().
func (s *Solver) SolveContext(ctx context.Context) (*core.Design, error) {
	return s.Run(ctx, core.Query{Thresholds: s.prob.Thresholds})
}

// MaxIsolation computes the maximum achievable network isolation (0–10
// scale) subject to a usability threshold and a cost budget, as in the
// paper's Fig. 3 curves.
func (s *Solver) MaxIsolation(usabilityTenths int, costBudget int64) (float64, *core.Design, error) {
	return s.MaxIsolationContext(context.Background(), usabilityTenths, costBudget)
}

// MaxIsolationContext is MaxIsolation bounded by ctx.
func (s *Solver) MaxIsolationContext(ctx context.Context, usabilityTenths int, costBudget int64) (float64, *core.Design, error) {
	q := core.Query{Optimise: core.ThresholdIsolation, Thresholds: core.Thresholds{UsabilityTenths: usabilityTenths, CostBudget: costBudget}}
	return q.Optimum(s.Run(ctx, q))
}

// MaxUsabilityContext computes the maximum achievable usability subject
// to an isolation threshold and a cost budget, bounded by ctx.
func (s *Solver) MaxUsabilityContext(ctx context.Context, isolationTenths int, costBudget int64) (float64, *core.Design, error) {
	q := core.Query{Optimise: core.ThresholdUsability, Thresholds: core.Thresholds{IsolationTenths: isolationTenths, CostBudget: costBudget}}
	return q.Optimum(s.Run(ctx, q))
}

// MinCost computes the minimum deployment budget that still satisfies
// the given isolation and usability thresholds.
func (s *Solver) MinCost(isolationTenths, usabilityTenths int) (int64, *core.Design, error) {
	return s.MinCostContext(context.Background(), isolationTenths, usabilityTenths)
}

// MinCostContext is MinCost bounded by ctx.
func (s *Solver) MinCostContext(ctx context.Context, isolationTenths, usabilityTenths int) (int64, *core.Design, error) {
	q := core.Query{Optimise: core.ThresholdCost, Thresholds: core.Thresholds{IsolationTenths: isolationTenths, UsabilityTenths: usabilityTenths}}
	v, d, err := q.Optimum(s.Run(ctx, q))
	return int64(v), d, err
}

// Assist produces the slider-assistance table (paper Table III) at the
// given usability levels, using the problem's cost budget.
func (s *Solver) Assist(usabilityLevels []int) ([]core.AssistEntry, error) {
	return core.AssistTable(s.prob, usabilityLevels, s.MaxIsolation)
}

// Explain runs the paper's Algorithm 1. Explanation is inherently
// sequential and model-extraction heavy, so it is never raced.
func (s *Solver) Explain() (ex *core.Explanation, err error) {
	err = s.canonical(func(syn *core.Synthesizer) (err error) {
		ex, err = syn.Explain()
		return err
	})
	return ex, err
}

// Stats returns the model statistics with the search counters
// (sat.Counters): the sequential arm's own, or for an engine the shape of
// its template — as it was before any question spent it — with the
// search of every raced worker and of every synthesizer its pool has
// handed out.
func (s *Solver) Stats() core.ModelStats {
	if s.seq != nil {
		return s.seq.Stats()
	}
	st := s.shape
	for _, w := range s.work {
		st.Counters.Add(w.Stats().Counters)
	}
	s.canonMu.Lock()
	st.Counters.Add(s.extracted)
	st.Counters.Add(s.probed)
	s.canonMu.Unlock()
	return st
}
