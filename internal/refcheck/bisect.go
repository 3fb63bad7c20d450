package refcheck

import (
	"fmt"
	"slices"

	"configsynth/internal/core"
	"configsynth/internal/smt"
)

// This file checks core.Query.Bisect — the one descent behind the Fig. 3
// curves, Table III's slider assistance and Algorithm 1's relaxations —
// against the brute-force optima. An instance's objective stands in for
// the free threshold, in both of Bisect's coordinates: maximised as
// isolation (a design's Isolation is the objective over ten, which
// round-trips exactly for 0..100; generated objectives sum to at most
// 24) and minimised as cost (a design's Cost is the objective). Each
// probe is one more guard — objective ≥ v, or ≤ v — assumed on one live
// solver, and every shape of prober production uses drives it (see
// prober).

var (
	maximise = core.Query{Optimise: core.ThresholdIsolation}
	minimise = core.Query{Optimise: core.ThresholdCost}
)

// A prober is a shape Bisect is driven in: full probes that return a
// design, so the bound jumps to what its model reached (core.descend);
// full probes that return a status only; and a racing engine's
// (portfolio.optimise): a cheap pass of status probes under
// cheapConflicts, then the canonical attempt on a freshly built solver,
// which returns its design, then full status probes for what is left. A
// blind cheap pass runs under no conflicts at all, so it mostly learns
// nothing and leaves the attempt at the tightest value the threshold
// allows — where it is Unsat, and the fallback runs.
type prober int

const (
	designs prober = iota
	statuses
	cheap
	blind
)

func (p prober) String() string { return [...]string{"designs", "statuses", "cheap", "blind"}[p] }

// cheapConflicts is the cheap pass's conflict budget: on instances this
// small, a few conflicts decide most probes and leave some Unknown.
const cheapConflicts = 2

// coverage counts the descents that met an injected Unknown, by budget
// and by wrapper, and those among them whose answer still reached an
// Unknown probe's threshold because a Sat jump carried the bound past
// it; and for the cheap shapes, the descents whose cheap pass met an
// Unknown, their attempts by status, and those that fell back to the
// full probes: a test can tell a passing oracle from one that met none
// of these.
type coverage struct {
	budget, wrapper, jumped int
	cheapUnknown, fallback  int
	attempts                [3]int // by smt.Status: Unknown, Sat, Unsat
}

// reference holds the brute-force answers for one instance.
type reference struct {
	in       *Instance
	min, max int64
	feasible bool
	probes   map[[2]int64]bool // satAt's answers, by coordinate and threshold
	cov      *coverage
}

func newReference(in *Instance, cov *coverage) *reference {
	r := &reference{in: in, probes: map[[2]int64]bool{}, cov: cov}
	r.min, r.max, r.feasible = Optima(in)
	return r
}

// satAt decides a probe by brute force: the instance with the probe's
// objective bound added as one more at-most constraint.
func (r *reference) satAt(q core.Query, v int64) bool {
	key := [2]int64{int64(q.Optimise), v}
	if sat, ok := r.probes[key]; ok {
		return sat
	}
	bound := AtMost{Lits: r.in.ObjLits, Weights: r.in.ObjWeights, Bound: v}
	if q == maximise { // Σ w·l ≥ v  ⇔  Σ w·¬l ≤ W − v
		bound.Lits, bound.Bound = make([]Lit, len(r.in.ObjLits)), -v
		for i, l := range r.in.ObjLits {
			bound.Lits[i] = -l
			bound.Bound += r.in.ObjWeights[i]
		}
	}
	probed := *r.in
	probed.AtMosts = append(slices.Clip(r.in.AtMosts), bound)
	r.probes[key] = SolveUnder(&probed, r.in.Assumptions)
	return r.probes[key]
}

// past reports whether a is strictly tighter than b in q's direction.
func past(q core.Query, a, b int64) bool {
	if q == maximise {
		return a > b
	}
	return a < b
}

// guard returns the guard of "objective ≥ v" (maximise) or "objective ≤
// v" (minimise), created on first use and kept, as core's threshold
// guards are, for every later descent on the solver.
func (b *built) guard(q core.Query, v int64) smt.Bool {
	key := [2]int64{int64(q.Optimise), v}
	if g, ok := b.probes[key]; ok {
		return g
	}
	g := b.sol.NewBool()
	if q == maximise {
		b.sol.AssertAtLeastIf(g, b.obj, v)
	} else {
		b.sol.AssertAtMostIf(g, b.obj, v)
	}
	b.probes[key] = g
	return g
}

// descend runs one Bisect descent of q over b's objective under b's
// assumptions, driven by prober shape p, with probe k — counting cheap
// probes, the attempt and full probes alike — answering Unknown (k < 0:
// none) through a zero conflict budget or, without budget, without
// asking the solver. It checks the first check's status, every
// definitive probe's and attempt's status, and the answer: never past
// the optimum, the optimum when exact, exact when no full probe was
// Unknown, and achieved by the model it is claimed from — the returned
// design's, which achieves the settled value exactly when it is a
// prober's that returns designs or the attempt's, or for a status-only
// answer the model of a check at the settled value. It returns the
// number of probes asked.
func (r *reference) descend(b *built, q core.Query, p prober, k int, budget bool) (int, error) {
	in, opt, assume := r.in, r.max, b.assumptions()
	if q == minimise {
		opt = r.min
	}
	probes, unknown := []string(nil), []int64(nil)
	fail := func(format string, args ...any) (int, error) {
		return 0, fmt.Errorf("refcheck: %v descent (prober %v, Unknown at probe %d by budget %v): "+format+"; probes %v on %v",
			append(append([]any{q.Optimise, p, k, budget}, args...), probes, in)...)
	}
	models := map[*core.Design]uint32{}
	extract := func(b *built) *core.Design {
		obj := b.sol.EvalSum(b.obj)
		d := &core.Design{Isolation: float64(obj) / 10, Cost: obj}
		for v, t := range b.vars {
			if b.sol.Value(t) {
				models[d] |= 1 << v
			}
		}
		return d
	}
	if st := b.sol.Check(assume...); st == smt.Unknown || (st == smt.Sat) != r.feasible {
		return fail("first check %v, reference feasible %v", st, r.feasible)
	} else if st == smt.Unsat {
		return 0, nil
	}
	first, from := extract(b), int64(0)
	switch {
	case p == designs:
		from = q.Value(first)
	case q == minimise:
		from = b.obj.Total()
	}
	var err error
	// ask decides one probe at at on b under conflicts (< 0: unlimited),
	// unless it is probe k, and checks a definitive answer.
	ask := func(b *built, kind string, at, conflicts int64) smt.Status {
		st := smt.Unknown
		if len(probes) != k || budget {
			if len(probes) == k {
				conflicts = 0
			}
			b.sol.SetBudget(conflicts)
			st = b.sol.Check(append(b.assumptions(), b.guard(q, at))...)
			b.sol.SetBudget(-1)
		}
		probes = append(probes, fmt.Sprintf("%s%d:%v", kind, at, st))
		if st != smt.Unknown && (st == smt.Sat) != r.satAt(q, at) && err == nil {
			_, err = fail("%s probe at %d is %v, reference disagrees", kind, at, st)
		}
		return st
	}
	cheapUnknown, attempt, attempted := false, smt.Unknown, false
	probe := core.Probes{Full: func(at int64) (smt.Status, *core.Design) {
		st := ask(b, "", at, -1)
		if st == smt.Unknown {
			unknown = append(unknown, at)
		}
		if st == smt.Sat && p == designs {
			return st, extract(b)
		}
		return st, nil
	}}
	if p == cheap || p == blind {
		conflicts := int64(cheapConflicts)
		if p == blind {
			conflicts = 0
		}
		probe.Cheap = func(at int64) smt.Status {
			st := ask(b, "cheap ", at, conflicts)
			cheapUnknown = cheapUnknown || st == smt.Unknown
			return st
		}
		probe.Attempt = func(at int64) (smt.Status, *core.Design) {
			fresh := b.fresh()
			attempt, attempted = ask(fresh, "attempt ", at, -1), true
			if attempt == smt.Sat {
				return attempt, extract(fresh)
			}
			return attempt, nil
		}
	}
	v, best, exact := q.Bisect(from, probe)
	switch {
	case err != nil:
		return 0, err
	case past(q, v, opt):
		return fail("settled on %d, past the optimum %d", v, opt)
	case exact && v != opt:
		return fail("claims %d exact, optimum %d", v, opt)
	case !exact && len(unknown) == 0:
		return fail("inexact at %d with every full probe definitive", v)
	case attempted && attempt == smt.Sat && best == nil:
		return fail("the attempt at %d was Sat, and its design is not the answer", v)
	}
	exactly := p == designs || best != nil
	if best == nil {
		best = first
		if p != designs {
			if st := b.sol.Check(append(slices.Clip(assume), b.guard(q, v))...); st != smt.Sat {
				return fail("settled on %d, where a check says %v", v, st)
			}
			best = extract(b)
		}
	}
	sound, got := in.satisfies(models[best], in.Assumptions), in.objective(models[best])
	if !sound || past(q, v, got) || exactly && got != v {
		return fail("settled on %d, claimed from a model (sound %v) achieving %d", v, sound, got)
	}
	if r.cov != nil {
		if len(unknown) > 0 {
			if budget {
				r.cov.budget++
			} else {
				r.cov.wrapper++
			}
			if slices.ContainsFunc(unknown, func(u int64) bool { return !past(q, u, v) }) {
				r.cov.jumped++
			}
		}
		if cheapUnknown {
			r.cov.cheapUnknown++
		}
		if attempted {
			r.cov.attempts[attempt]++
			if attempt != smt.Sat {
				r.cov.fallback++
			}
		}
	}
	return len(probes), nil
}

// CheckOptimum checks core.Query.Bisect on the instance's objective
// against the brute-force optima. One solver runs maximise, minimise,
// maximise back to back in every prober shape, as a kept engine descends
// without resetting its search state, and so does a fresh solver per
// descent: a descent without injected Unknowns must be exact, so each
// settles on the optimum, and the reused solver's answers equal the
// fresh ones'. After each, every probe of it — cheap, attempt or full —
// is made Unknown in turn, by budget and by wrapper, on the reused
// solver: the answer may lose exactness, never soundness.
func CheckOptimum(in *Instance, cfg smt.SolverConfig) error {
	return checkOptimum(in, cfg, nil)
}

func checkOptimum(in *Instance, cfg smt.SolverConfig, cov *coverage) error {
	r, b := newReference(in, cov), Build(in, cfg)
	for _, q := range []core.Query{maximise, minimise, maximise} {
		for _, p := range []prober{designs, statuses, cheap, blind} {
			probes, err := r.descend(b, q, p, -1, false)
			if err == nil {
				_, err = r.descend(Build(in, cfg), q, p, -1, false)
			}
			for k := 0; k < 2*probes && err == nil; k++ {
				_, err = r.descend(b, q, p, k/2, k%2 == 0)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
