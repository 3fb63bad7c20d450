package portfolio

import (
	"fmt"

	"configsynth/internal/core"
	"configsynth/internal/spec"
)

// This file implements what-if sessions: a Solver variant whose raced
// workers stay alive — encoded instance, clause arena, and learnt
// clauses intact — across queries against threshold variants of one
// problem. Thresholds are never baked into the clause database (they
// are assumption guards created on demand, see core.Synthesizer), so
// re-solving a delta is a new Check under new assumptions on a warm
// solver, which is where the slider-sweep speedup comes from.
//
// Determinism is preserved by construction rather than by trying to
// keep a canonical solver bit-stable across queries (it cannot be: root
// simplification, learnt units, and on-demand guard allocation mutate
// it irreversibly). A session has no long-lived canonical synthesizer
// at all. It keeps one encoded template pristine — no threshold guard,
// never searched — and each query's design or unsat core is extracted
// by a fresh clone of it given the session's current thresholds, used
// for exactly one model-producing check, and discarded. Since the
// snapshot predates every guard and every search, that clone is state
// for state the canonical synthesizer a from-scratch NewRacing solve of
// the problem builds, and performs the same computation byte for byte —
// for the price of a copy and three guards instead of an encode.
// Statuses from the warm workers are semantic properties of the
// formula, so the descent takes the same path either way, and in the
// exact regime (probe budgets that do not bind) session results are
// bit-identical to independent from-scratch solves.
//
// The workers are clones of the same template, taken by the first probe
// (warm): a session that only ever answers Solve-style deltas — a
// slider sweep — never races, and holds the template alone.

// NewSession builds a persistent what-if session over p: a racing
// portfolio whose workers are kept warm across queries. Retarget moves
// the session to a new threshold combination of the same problem
// family; every query then re-solves only the delta. workers < 1 is
// treated as 1.
func NewSession(p *core.Problem, workers int) (*Solver, error) {
	tmpl, err := core.NewTemplate(p)
	if err != nil {
		return nil, err
	}
	return &Solver{
		prob:   p,
		dead:   make([]bool, max(workers, 1)),
		tmpl:   tmpl,
		family: spec.FamilyFingerprint(p),
	}, nil
}

// warm clones the session's workers from its template before the first
// race. A clone cannot outgrow an arena the template's own encode fit
// in, but if it does the error unwinds like a search-time overflow
// (context.go turns it into the typed error).
func (s *Solver) warm() {
	if s.tmpl == nil || s.work != nil {
		return
	}
	work, err := cloneWorkers(s.tmpl, s.prob.Thresholds, len(s.dead))
	if err != nil {
		panic(err)
	}
	s.extractMu.Lock()
	s.work = work
	s.extractMu.Unlock()
}

// Session reports whether this solver is a persistent what-if session.
func (s *Solver) Session() bool { return s.tmpl != nil }

// Family returns the session's family fingerprint (the problem with
// thresholds zeroed); empty for non-session solvers.
func (s *Solver) Family() string { return s.family }

// Retarget points the session at a modified problem. Only threshold
// deltas are legal: the encoding (routes, flows, placements, policies)
// is reused verbatim, which is sound exactly when everything except the
// thresholds is unchanged — enforced by comparing thresholds-zeroed
// canonical fingerprints. Any leftover per-query state (incumbent,
// bound observer, sticky interrupts) is cleared.
//
// It is RetargetFamily for a caller without p's family fingerprint in
// hand.
func (s *Solver) Retarget(p *core.Problem) error {
	return s.RetargetFamily(p, spec.FamilyFingerprint(p))
}

// RetargetFamily is Retarget for a caller that already holds p's family
// fingerprint (spec.FamilyFingerprint(p) — the service keys its session
// registry on it), sparing a second canonicalisation and hash of p.
func (s *Solver) RetargetFamily(p *core.Problem, family string) error {
	if s.tmpl == nil {
		return fmt.Errorf("portfolio: Retarget on a non-session solver")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if family != s.family {
		return fmt.Errorf("portfolio: retarget problem differs beyond thresholds (family %.12s, session %.12s)", family, s.family)
	}
	if !s.tmpl.Fits(p) {
		// Same family, other declaration order (the fingerprint sorts
		// links and rules): the LinkIDs in the template's designs are not
		// p's, and a from-scratch solve of p would search a differently
		// numbered model. Extract from p's own encoding from here on. The
		// warm workers stay: they only ever report statuses, which are the
		// family's.
		tmpl, err := core.NewTemplate(p)
		if err != nil {
			return err
		}
		s.tmpl = tmpl
	}
	s.prob = p
	s.ResetQueryState()
	// Keep the learnt clauses (the warm-start payoff) but forget the
	// search heuristics: phases and activities tuned to the previous
	// thresholds can derail the next probe by orders of magnitude.
	for i, w := range s.work {
		if !s.dead[i] {
			w.ResetSearchState()
		}
	}
	return nil
}

// ResetQueryState clears everything one query may have left on the
// solver — the anytime incumbent, the bound observer, and sticky
// interrupts — so the next query (possibly on behalf of a different
// client) starts clean. The service runs this before a session is
// checked back into its registry.
func (s *Solver) ResetQueryState() {
	s.onBound = nil
	s.resetIncumbent()
	s.clearAll()
}

// extractor returns the canonical synthesizer to extract one query's
// design or core with. Non-session solvers use their dedicated
// long-lived canonical; a session clones a fresh one from its pristine
// template under its current problem's thresholds, records it so a
// concurrent context cancellation can reach it (interruptAll), and the
// caller releases it when the extraction returns.
func (s *Solver) extractor() (*core.Synthesizer, error) {
	if s.tmpl == nil {
		return s.canon, nil
	}
	syn, err := s.tmpl.Clone(s.prob.Thresholds, s.prob.Options.Solver)
	if err != nil {
		return nil, err
	}
	s.extractMu.Lock()
	s.extract = syn
	s.extractMu.Unlock()
	return syn, nil
}

// release drops a session's per-query extractor again, keeping the
// search it did (its counters beyond the template's) for Stats.
func (s *Solver) release(syn *core.Synthesizer) {
	if s.tmpl == nil {
		return
	}
	s.extractMu.Lock()
	if s.extract == syn {
		s.extract = nil
	}
	s.extracted.AddSearch(syn.Stats().Since(s.tmpl.Stats()))
	s.extractMu.Unlock()
}

// canonSolve runs the canonical Solve for this query (on a fresh clone
// in session mode).
func (s *Solver) canonSolve() (*core.Design, error) {
	syn, err := s.extractor()
	if err != nil {
		return nil, err
	}
	defer s.release(syn)
	return syn.Solve()
}

// canonCheckAt runs the canonical CheckAt for this query.
func (s *Solver) canonCheckAt(th core.Thresholds) (*core.Design, error) {
	syn, err := s.extractor()
	if err != nil {
		return nil, err
	}
	defer s.release(syn)
	return syn.CheckAt(th)
}

// canonAnytimeAt runs the canonical anytime re-extraction for this
// query (degrade-to-anytime path).
func (s *Solver) canonAnytimeAt(th core.Thresholds) (*core.Design, error) {
	syn, err := s.extractor()
	if err != nil {
		return nil, err
	}
	defer s.release(syn)
	return syn.AnytimeAt(th)
}

// costUpperBound returns the trivially sufficient cost budget. The cost
// sum is a property of the encoding, so a session's template answers.
func (s *Solver) costUpperBound() int64 {
	if s.tmpl == nil {
		return s.canon.CostUpperBound()
	}
	return s.tmpl.CostUpperBound()
}
