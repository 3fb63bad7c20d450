package core

import "configsynth/internal/smt"

// This file is the Synthesizer surface consumed by internal/portfolio:
// status-only probes, cooperative cancellation, and the bounds the
// portfolio's central binary searches need. Everything here is safe to
// drive from a portfolio coordinator as long as each Synthesizer is
// touched by one goroutine at a time (Interrupt/ClearInterrupt excepted,
// which are safe concurrently with a running probe).

// ProbeStatus checks satisfiability at the given thresholds and reports
// only the status, without extracting a design. With limited true the
// check runs under Options.ProbeBudget (anytime probe semantics, as in
// the optimization descents); otherwise under Options.SolverBudget.
// Guard literals are created on demand exactly as for CheckAt, so a
// fixed probe sequence allocates identical guards on every worker.
func (s *Synthesizer) ProbeStatus(th Thresholds, limited bool) smt.Status {
	return s.check(s.assume(Query{Thresholds: th}), limited)
}

// ProbeStatusWithin is ProbeStatus under at most budget conflicts, or
// Options.ProbeBudget where that is tighter: the cheap pass of an
// optimisation (Probes.Cheap), whose probes are meant to answer only
// what a few conflicts can settle.
func (s *Synthesizer) ProbeStatusWithin(th Thresholds, budget int64) smt.Status {
	if b := s.prob.Options.ProbeBudget; b > 0 {
		budget = min(budget, b)
	}
	return s.checkWithin(s.assume(Query{Thresholds: th}), budget)
}

// Interrupt asks the solver to abandon its current check as soon as
// possible (the check reports Unknown). Safe to call from another
// goroutine; the flag is sticky until ClearInterrupt.
func (s *Synthesizer) Interrupt() { s.sol.Interrupt() }

// ClearInterrupt re-arms the solver after an Interrupt.
func (s *Synthesizer) ClearInterrupt() { s.sol.ClearInterrupt() }

// ResetSearchState forgets the solver's search heuristics while keeping
// its clause database, learnt clauses included. What-if sessions call
// this when retargeting a warm worker to new thresholds: saved phases
// and activities tuned to the previous query's bounds can send the next
// probe orders of magnitude astray, while the learnt clauses stay sound
// (they are threshold-conditioned through the guards) and carry the
// warm-start payoff.
func (s *Synthesizer) ResetSearchState() { s.sol.ResetSearchState() }

// CostUpperBound returns the total cost of placing every candidate
// device on every candidate link — a trivially sufficient budget, used
// as the upper end of cost binary searches.
func (s *Synthesizer) CostUpperBound() int64 { return s.costSum.Total() }

// AnytimeAt re-extracts a feasible design at thresholds an optimization
// descent already proved satisfiable — the degrade-to-anytime hook:
// when a deadline truncates a descent mid-search, the portfolio
// re-checks its best incumbent bound here and returns that model marked
// inexact instead of surfacing a bare timeout. The check runs under the
// probe budget so a degraded extraction cannot itself run unbounded.
func (s *Synthesizer) AnytimeAt(th Thresholds) (*Design, error) {
	d, err := s.checkExtract(s.assume(Query{Thresholds: th}), true)
	if err != nil {
		return nil, err
	}
	d.Exact = false
	return d, nil
}

// AttemptAt is CheckAt's check — the same guards in the same order —
// under Options.ProbeBudget, or Options.SolverBudget where that is
// tighter: the canonical question an optimisation asks once, at the
// bound its cheap pass left open (Probes.Attempt). It reports the status
// and, on Sat, the design. A search that ends within its budget is the
// search an unbudgeted check makes — the budget only trims the last
// restart window to what is left of it — so a Sat here is CheckAt's
// design, byte for byte.
func (s *Synthesizer) AttemptAt(th Thresholds) (smt.Status, *Design) {
	b, own := s.prob.Options.ProbeBudget, s.prob.Options.SolverBudget
	if b <= 0 || own > 0 && own < b {
		b = own
	}
	if b <= 0 {
		b = -1 // unlimited
	}
	return s.withModel(s.checkWithin(s.assume(Query{Thresholds: th}), b))
}
