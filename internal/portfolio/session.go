package portfolio

import (
	"fmt"
	"slices"

	"configsynth/internal/core"
	"configsynth/internal/spec"
)

// This file is what an engine does with its template: clone the raced
// workers, hand out a synthesizer per question from one pool (get, put)
// — a clone, or the template itself for a one-shot engine's canonical
// question — and move to another threshold combination of the same
// problem family.
//
// Thresholds are never baked into the clause database (they are
// assumption guards created on demand, see core.Synthesizer), so
// re-solving a delta is a new check under new assumptions — on a warm
// worker for a probe, on a synthesizer from the pool for a model.
// Determinism is preserved by construction rather than by trying to keep
// a canonical solver bit-stable across queries (it cannot be: root
// simplification, learnt units, and on-demand guard allocation mutate it
// irreversibly). The template stays pristine, each synthesizer the pool
// hands out is used for exactly one question, and so answers it byte for
// byte as a from-scratch engine would — for the price of a copy and
// three guards instead of an encode. The copy goes into the memory of
// the previous question's synthesizer, which a session keeps as its
// spare and nothing reads. A one-shot engine does not even copy for its
// canonical question: the pool hands out the template, spent, and a
// second question pays the encode.

// warm clones the engine's workers from its template before the first
// race: an engine that only ever answers checks — a slider sweep — never
// races, and holds the template alone. A clone cannot outgrow an arena
// the template's own encode fit in (nor can the encode a spent template
// needs first), but if it does the error unwinds like a search-time
// overflow (guard turns it into the typed error).
func (s *Solver) warm() {
	if s.work != nil {
		return
	}
	work, err := s.cloneWorkers()
	if err != nil {
		panic(err)
	}
	s.canonMu.Lock()
	s.work = work
	s.canonMu.Unlock()
}

// template returns the engine's pristine template, encoding the current
// problem afresh when a one-shot question has spent the last one.
func (s *Solver) template() (*core.Template, error) {
	if s.spent {
		tmpl, err := core.NewTemplate(s.prob)
		if err != nil {
			return nil, err
		}
		s.tmpl, s.shape, s.spent = tmpl, tmpl.Stats(), false
	}
	return s.tmpl, nil
}

// canonical runs ask on the synthesizer that produces this solver's
// models: the sequential arm's one, or one from an engine's pool for
// this question (get), taken back when ask returns (put).
func (s *Solver) canonical(ask func(*core.Synthesizer) error) (err error) {
	if s.seq != nil {
		return ask(s.seq)
	}
	syn, err := s.get(true)
	if err != nil {
		return err
	}
	answered := false
	defer func() { s.put(syn, answered) }()
	err = ask(syn)
	answered = true
	return err
}

// get returns a synthesizer for one question under the current problem's
// thresholds and solver configuration, and counts it live until put: the
// template itself, spent (core.Template.Synthesizer), for a one-shot
// engine's canonical question (spend); otherwise a clone of it built in
// the memory of the spare (core.Template.CloneInto). Both are state for
// state a plain clone.
func (s *Solver) get(spend bool) (syn *core.Synthesizer, err error) {
	tmpl, err := s.template()
	if err != nil {
		return nil, err
	}
	spend = spend && s.oneShot
	if spend {
		syn, err = tmpl.Synthesizer(s.prob.Thresholds, s.prob.Options.Solver)
	} else {
		syn, err = tmpl.CloneInto(s.spare, s.prob.Thresholds, s.prob.Options.Solver)
		s.spare = nil
	}
	if err != nil {
		return nil, err
	}
	s.canonMu.Lock()
	s.live = append(s.live, syn)
	s.spent = spend
	if s.stopped() {
		// Checked under canonMu: a watcher's interruptAll either finds
		// syn live or ran after the context fired.
		syn.Interrupt()
	}
	s.canonMu.Unlock()
	return syn, nil
}

// put takes back syn, which get handed out, when its question is over:
// the search it did (its counters beyond the template's) is summed for
// Stats, into extracted if the question was answered and into probed
// otherwise — a search that panicked included — and, on a session, syn
// becomes the spare, whatever state the question left it in.
func (s *Solver) put(syn *core.Synthesizer, answered bool) {
	tally := &s.probed
	if answered {
		tally = &s.extracted
	}
	s.canonMu.Lock()
	i := slices.Index(s.live, syn)
	s.live = slices.Delete(s.live, i, i+1)
	tally.Add(syn.Stats().Counters.Sub(s.shape.Counters))
	s.canonMu.Unlock()
	if !s.oneShot {
		s.spare = syn
	}
}

// Family returns the family fingerprint of the solver's problem (the
// problem with thresholds zeroed), which Retarget never changes.
func (s *Solver) Family() string {
	if s.family == "" {
		s.family = spec.FamilyFingerprint(s.prob)
	}
	return s.family
}

// Retarget points an engine at a modified problem. Only threshold
// deltas are legal: the encoding (routes, flows, placements, policies)
// is reused verbatim, which is sound exactly when everything except the
// thresholds is unchanged — enforced by comparing thresholds-zeroed
// canonical fingerprints. One family has one link set, and LinkIDs are
// a function of the link set (topology.Network.Connect), so a LinkID
// names the same link in every problem of the family. Pattern device
// lists and policy rules may come in any order: they change neither an
// answer nor what a LinkID means. Execution knobs outside the fingerprint
// (Options.Verify) stay the engine's. p is validated first. Any
// leftover per-query state (incumbent, bound observer, sticky
// interrupts) is cleared.
func (s *Solver) Retarget(p *core.Problem) error {
	if err := p.Validate(); err != nil {
		return err
	}
	return s.RetargetFamily(p, spec.FamilyFingerprint(p))
}

// RetargetFamily is Retarget for a trusted caller: one that has
// validated p already and holds its family fingerprint
// (spec.FamilyFingerprint(p) — the service keys its session registry on
// it), sparing a second validation and a second canonicalisation and
// hash of p.
func (s *Solver) RetargetFamily(p *core.Problem, family string) error {
	if s.seq != nil {
		return fmt.Errorf("portfolio: Retarget on the sequential arm, whose one synthesizer is bound to its thresholds")
	}
	if family != s.Family() {
		return fmt.Errorf("portfolio: retarget problem differs beyond thresholds (family %.12s, engine %.12s)", family, s.family)
	}
	s.prob = p
	s.ResetQueryState()
	// Keep the learnt clauses (the warm-start payoff) but forget the
	// search heuristics: phases and activities tuned to the previous
	// thresholds can derail the first probes at the new ones by orders of
	// magnitude (saved phases replay a stale model against a changed
	// bound). Within one target the full probes of a descent build on
	// each other's heuristics, as on a fresh engine; the only other reset
	// is where they take over from a cheap pass (optimise).
	s.resetHeuristics()
	return nil
}

// resetHeuristics makes every live worker forget its search heuristics,
// keeping its clauses, learnt ones included.
func (s *Solver) resetHeuristics() {
	for i, w := range s.work {
		if !s.dead[i] {
			w.ResetSearchState()
		}
	}
}

// ResetQueryState clears everything one query may have left on the
// solver — the anytime incumbent, the bound observer, and sticky
// interrupts — so the next query (possibly on behalf of a different
// client) starts clean. The service runs this before an engine is
// checked into its session registry.
func (s *Solver) ResetQueryState() {
	s.onBound = nil
	s.incumbent = nil
	s.clearAll()
}
