package core

import (
	"math"
	"slices"
	"sort"

	"configsynth/internal/smt"
)

// Query is one question to an encoded problem. Every query the paper
// defines — the Eq. 12 check, the optimisations behind Fig. 3 and Table
// III, the relaxations of Algorithm 1 — is the same formula with Eq. 9's
// three thresholds as data: a plain check holds all three, an
// optimisation leaves one of them free and asks for the tightest value
// of it that is still satisfiable under the other two.
type Query struct {
	// Optimise is the threshold left free: isolation and usability are
	// maximised, cost is minimised. Zero checks Thresholds as they stand.
	Optimise ThresholdKind
	// Thresholds are the slider values held. The entry of the Optimise
	// kind is ignored.
	Thresholds Thresholds
}

// Objective is what d achieved on the optimised threshold, in the
// design's own unit (the 0–10 scale, or $K); zero for a plain check.
func (q Query) Objective(d *Design) float64 {
	switch q.Optimise {
	case ThresholdIsolation:
		return d.Isolation
	case ThresholdUsability:
		return d.Usability
	case ThresholdCost:
		return float64(d.Cost)
	}
	return 0
}

// Value is Objective in the threshold's own unit: slider tenths rounded
// down, or cost.
//
// A slider score is a ratio of the model's integer sums, 10·p/n (Σ
// isolation scores over the most reachable; Σ ranks less the usability
// loss over Σ ranks), and its float carries the rounding of that
// division: a usability of exactly 9.4 reads as 9.399999999999999. Its
// tenths are 100·p/n, so where they are not whole they sit at least 1/n
// below the next whole tenth. The floor forgives valueSlack: far above
// the float's rounding (about 1e-14 at 100), and below 1/n for any n
// under 10^11, far more flows than a model holds.
func (q Query) Value(d *Design) int64 {
	if q.Optimise == ThresholdCost {
		return d.Cost
	}
	return int64(math.Floor(q.Objective(d)*10 + valueSlack))
}

// valueSlack is how far below a whole tenth Value still reads a slider
// score as that tenth.
const valueSlack = 1e-11

// Optimum splits the answer of a Run of q into the (optimum, design,
// error) triple the named optimisation methods return.
func (q Query) Optimum(d *Design, err error) (float64, *Design, error) {
	if err != nil {
		return 0, nil, err
	}
	return q.Objective(d), d, nil
}

// With returns th with the threshold of the given kind set to v.
func (th Thresholds) With(kind ThresholdKind, v int64) Thresholds {
	switch kind {
	case ThresholdIsolation:
		th.IsolationTenths = int(v)
	case ThresholdUsability:
		th.UsabilityTenths = int(v)
	case ThresholdCost:
		th.CostBudget = v
	}
	return th
}

// Probes are who answers Bisect's probes, each with the free threshold
// held at v. Full decides a probe definitively or reports Unknown (a
// blown budget, a lost race); a satisfiable one may return the design
// it found, so the bound jumps to what that design achieved (a prober
// that only has a status returns nil).
//
// Cheap and Attempt, set together, put a cheap pass ahead of the full
// probes. Cheap decides a probe under a budget so small that only the
// easy questions come back definitive: a value past the optimum that a
// counting bound refutes at the root, or one far below it. Attempt asks
// the canonical question once, at the tightest value the cheap pass
// left open, and returns its design on Sat.
type Probes struct {
	Full    func(v int64) (smt.Status, *Design)
	Cheap   func(v int64) smt.Status
	Attempt func(v int64) (smt.Status, *Design)
}

// Bisect is the one optimisation descent: a binary search for the
// tightest satisfiable value of q's free threshold. from is the loosest
// value, known satisfiable: the search runs over a tightness t — the
// threshold itself, from..100, for the two sliders; the saving
// from−cost, 0..from, for cost — so every query maximises and one
// midpoint rule serves both directions.
//
// Without a cheap prober every probe is a full one. A satisfiable probe
// moves the lower bound to v, or past it to what its design achieved; an
// Unknown one counts as unsatisfiable and makes the answer inexact.
//
// With one, the search starts with a cheap pass. A cheap Sat proves a
// lower bound and a cheap Unsat an upper one; a cheap Unknown proves
// nothing and only raises the floor the pass bisects from, so the pass
// ends at up: the tightest value not refuted, with up+1 refuted or up
// the tightest the threshold allows. Then Attempt decides up. Sat there
// is the optimum, exact, and the attempt's design is the answer.
// Otherwise — Unsat lowers up by one, Unknown leaves it — the full
// probes bisect what is left between the proven bounds, as they would
// have without the cheap pass. No cheap probe and no attempt ever makes
// the answer inexact.
//
// Bisect returns the value it settled on, the design of the last
// satisfiable probe or attempt that returned one, and whether every full
// probe was definitive.
func (q Query) Bisect(from int64, p Probes) (v int64, best *Design, exact bool) {
	lo, hi, at := from, int64(100), func(t int64) int64 { return t }
	if q.Optimise == ThresholdCost {
		// Its own inverse: a cost is the tightness of its saving.
		lo, hi, at = 0, from, func(t int64) int64 { return from - t }
	}
	// floor is where the cheap pass bisects from: lo, or above it where
	// a cheap Unknown left it. cheap says the pass is still on.
	floor, cheap := lo, p.Cheap != nil
	exact = true
	for lo < hi {
		if cheap && floor < hi {
			mid := floor + (hi-floor+1)/2
			switch p.Cheap(at(mid)) {
			case smt.Sat:
				lo, floor = mid, mid
			case smt.Unsat:
				hi = mid - 1
			default:
				floor = mid
			}
			continue
		}
		if cheap {
			cheap = false
			switch st, d := p.Attempt(at(hi)); st {
			case smt.Sat:
				best, lo = d, hi
			case smt.Unsat:
				hi--
			}
			continue
		}
		mid := lo + (hi-lo+1)/2
		switch st, d := p.Full(at(mid)); {
		case st == smt.Sat && d != nil:
			best, lo = d, max(at(q.Value(d)), mid)
		case st == smt.Sat:
			lo = mid
		default:
			exact = exact && st != smt.Unknown
			hi = mid - 1
		}
	}
	return at(lo), best, exact
}

// Run answers q on this synthesizer's incremental solver: a check of
// the held thresholds, and for an optimisation a descent of guarded
// probes (so every probe benefits from the flow-assignment theory and
// from what the earlier ones learnt). On UNSAT — of the check, or of an
// optimisation's held thresholds alone — it returns a
// *ThresholdConflictError with the unsat core over the held thresholds.
func (s *Synthesizer) Run(q Query) (*Design, error) {
	if q.Optimise == 0 {
		return s.checkExtract(s.assume(q), false)
	}
	return s.descend(q, s.assume(q))
}

// assume returns the guards of the thresholds q holds, in the order
// isolation, usability, cost.
func (s *Synthesizer) assume(q Query) []smt.Bool {
	th := q.Thresholds
	held := make([]smt.Bool, 0, 3)
	for _, g := range []guardKey{
		{ThresholdIsolation, int64(th.IsolationTenths)},
		{ThresholdUsability, int64(th.UsabilityTenths)},
		{ThresholdCost, th.CostBudget},
	} {
		if g.kind != q.Optimise {
			held = append(held, s.guardOf(g.kind, g.v))
		}
	}
	return held
}

// descend optimises q's free threshold under the assumptions: check
// them alone, then Bisect from what that first design achieved, each
// probe one more guard under the probe budget. A satisfiable probe
// returns its design, so the bound jumps to what the model reached.
func (s *Synthesizer) descend(q Query, assume []smt.Bool) (*Design, error) {
	best, err := s.checkExtract(assume, false)
	if err != nil {
		return nil, err
	}
	_, d, exact := q.Bisect(q.Value(best), Probes{Full: func(v int64) (smt.Status, *Design) {
		return s.checkModel(append(slices.Clip(assume), s.guardOf(q.Optimise, v)), true)
	}})
	if d != nil {
		best = d
	}
	best.Exact = exact
	return best, nil
}

// check decides the assumptions. A limited check runs under
// Options.ProbeBudget instead of Options.SolverBudget: optimisation
// probes are anytime, like an SMT solver run under a timeout.
func (s *Synthesizer) check(assume []smt.Bool, limited bool) smt.Status {
	if b := s.prob.Options.ProbeBudget; limited && b > 0 {
		return s.checkWithin(assume, b)
	}
	return s.sol.Check(assume...)
}

// checkWithin decides the assumptions under a conflict budget of the
// caller's, then restores Options.SolverBudget.
func (s *Synthesizer) checkWithin(assume []smt.Bool, budget int64) smt.Status {
	s.sol.SetBudget(budget)
	defer s.restoreBudget()
	return s.sol.Check(assume...)
}

// checkModel is check that extracts a design on SAT.
func (s *Synthesizer) checkModel(assume []smt.Bool, limited bool) (smt.Status, *Design) {
	return s.withModel(s.check(assume, limited))
}

// withModel extracts the design of the check that just returned st, if
// it is Sat.
func (s *Synthesizer) withModel(st smt.Status) (smt.Status, *Design) {
	if st != smt.Sat {
		return st, nil
	}
	d := s.extractDesign()
	d.Exact = true
	return st, d
}

// checkExtract is checkModel with the two failures as errors: a blown
// budget, or a threshold conflict carrying the unsat core.
func (s *Synthesizer) checkExtract(assume []smt.Bool, limited bool) (*Design, error) {
	switch st, d := s.checkModel(assume, limited); st {
	case smt.Sat:
		return d, nil
	case smt.Unknown:
		return nil, ErrBudgetExceeded
	default:
		return nil, &ThresholdConflictError{Core: s.coreKinds()}
	}
}

// coreKinds maps the solver's unsat core back to the thresholds whose
// guards the last check assumed, whichever query they belonged to.
func (s *Synthesizer) coreKinds() []ThresholdKind {
	var kinds []ThresholdKind
	for _, b := range s.sol.Core() {
		kinds = append(kinds, s.guardKind[b])
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

func (s *Synthesizer) restoreBudget() {
	if b := s.prob.Options.SolverBudget; b > 0 {
		s.sol.SetBudget(b)
	} else {
		s.sol.SetBudget(-1)
	}
}

// Solve checks the full conjunction Constr ≡ CR ∧ TC ∧ IIC ∧ UIC
// (Eq. 12) at the problem's own thresholds.
func (s *Synthesizer) Solve() (*Design, error) {
	return s.Run(Query{Thresholds: s.prob.Thresholds})
}

// CheckAt checks satisfiability at the given thresholds, without
// changing the problem's own sliders: a what-if query answered
// incrementally against the already-encoded model.
func (s *Synthesizer) CheckAt(th Thresholds) (*Design, error) {
	return s.Run(Query{Thresholds: th})
}

// MaxIsolation computes the maximum achievable network isolation (0–10
// scale) subject to a usability threshold (tenths of the 0–10 scale) and
// a cost budget, at slider resolution (0.1): the query behind the
// paper's Fig. 3 trade-off curves.
func (s *Synthesizer) MaxIsolation(usabilityTenths int, costBudget int64) (float64, *Design, error) {
	q := Query{Optimise: ThresholdIsolation, Thresholds: Thresholds{UsabilityTenths: usabilityTenths, CostBudget: costBudget}}
	return q.Optimum(s.Run(q))
}

// MinCost computes the minimum deployment cost that still satisfies the
// given isolation and usability thresholds.
func (s *Synthesizer) MinCost(isolationTenths, usabilityTenths int) (int64, *Design, error) {
	q := Query{Optimise: ThresholdCost, Thresholds: Thresholds{IsolationTenths: isolationTenths, UsabilityTenths: usabilityTenths}}
	v, d, err := q.Optimum(s.Run(q))
	return int64(v), d, err
}
