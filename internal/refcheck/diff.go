package refcheck

import (
	"fmt"
	"slices"

	"configsynth/internal/smt"
)

// built is an Instance encoded into a live smt.Solver.
type built struct {
	sol    *smt.Solver
	vars   []smt.Bool // vars[v-1] is variable v
	obj    *smt.Sum
	assume []smt.Bool            // parallel to Instance.Assumptions
	guards []smt.Bool            // parallel to Instance.AtMosts if built guarded
	probes map[[2]int64]smt.Bool // Bisect's probe guards; see guard
	fresh  func() *built         // encodes the same instance the same way again
}

// Build encodes the instance into a fresh solver diversified by cfg,
// with the self-check hooks armed: every Sat model and every Unsat
// core the solver produces during the differential is re-validated.
func Build(in *Instance, cfg smt.SolverConfig) *built { return build(in, cfg, false) }

// BuildGuarded encodes the instance like Build, except that each
// at-most constraint is asserted under a fresh guard literal instead of
// unconditionally; checking with all guards assumed true is equivalent
// to the baked encoding.
func BuildGuarded(in *Instance, cfg smt.SolverConfig) *built { return build(in, cfg, true) }

func build(in *Instance, cfg smt.SolverConfig, guarded bool) *built {
	b := &built{sol: smt.NewSolverWith(cfg), obj: &smt.Sum{}, probes: map[[2]int64]smt.Bool{}}
	b.fresh = func() *built { return build(in, cfg, guarded) }
	b.sol.SetVerify(true)
	for range in.Vars {
		b.vars = append(b.vars, b.sol.NewBool())
	}
	for _, c := range in.Clauses {
		terms := make([]smt.Bool, len(c))
		for i, l := range c {
			terms[i] = b.term(l)
		}
		b.sol.AddClause(terms...)
	}
	for ai, am := range in.AtMosts {
		sum := &smt.Sum{}
		for i, l := range am.Lits {
			sum.Add(b.term(l), am.Weights[i])
		}
		if guarded {
			b.guards = append(b.guards, b.sol.NewBool())
			b.sol.AssertAtMostIf(b.guards[ai], sum, am.Bound)
		} else {
			b.sol.AssertAtMost(sum, am.Bound)
		}
	}
	for i, l := range in.ObjLits {
		b.obj.Add(b.term(l), in.ObjWeights[i])
	}
	for _, l := range in.Assumptions {
		b.assume = append(b.assume, b.term(l))
	}
	return b
}

// assumptions returns the instance assumptions plus every guard.
func (b *built) assumptions() []smt.Bool {
	return append(slices.Clip(b.assume), b.guards...)
}

func (b *built) term(l Lit) smt.Bool {
	t := b.vars[l.Var()-1]
	if !l.Pos() {
		t = t.Not()
	}
	return t
}

// value adapts the solver model to the reference's valuation shape.
func (b *built) value() func(v int) bool {
	return func(v int) bool { return b.sol.Value(b.vars[v-1]) }
}

// CheckStatus cross-checks one Check call against the reference:
// status equality, model soundness on Sat, and core soundness on Unsat
// (the core must be drawn from the assumptions and re-solving the
// formula under the core literals alone must stay unsatisfiable).
func CheckStatus(in *Instance, cfg smt.SolverConfig) error {
	return checkStatus(in, Build(in, cfg))
}

// checkStatus is CheckStatus on a built solver, baked or guarded. On a
// guarded build the cored guards name the at-most constraints that take
// part in the contradiction: the formula restricted to exactly those
// (clauses are unconditional in both encodings) must stay unsatisfiable
// under the cored assumption literals.
func checkStatus(in *Instance, b *built) error {
	refSat := Solve(in)
	switch st := b.sol.Check(b.assumptions()...); {
	case st == smt.Unknown:
		return fmt.Errorf("refcheck: unbudgeted Check returned unknown on %v", in)
	case (st == smt.Sat) != refSat:
		return fmt.Errorf("refcheck: solver says %v, reference sat %v on %v", st, refSat, in)
	case st == smt.Sat:
		if bad := Violations(in, in.Assumptions, b.value()); len(bad) > 0 {
			return fmt.Errorf("refcheck: unsound model on %v: %v", in, bad)
		}
		return nil
	}
	lits, atmosts, err := coreOf(in, b)
	if err != nil {
		return err
	}
	reduced := in
	if len(b.guards) > 0 {
		reduced = &Instance{Vars: in.Vars, Clauses: in.Clauses}
		for _, i := range atmosts {
			reduced.AtMosts = append(reduced.AtMosts, in.AtMosts[i])
		}
	}
	if SolveUnder(reduced, lits) {
		return fmt.Errorf("refcheck: unsound core (lits %v, atmosts %v) on %v: formula is satisfiable under it", lits, atmosts, in)
	}
	return nil
}

// coreOf splits the solver's unsat core into instance assumption
// literals and the indices of cored at-most constraints (guarded builds
// only), rejecting terms that are neither.
func coreOf(in *Instance, b *built) (lits []Lit, atmosts []int, err error) {
	byAssume := make(map[smt.Bool]Lit, len(b.assume))
	for i, t := range b.assume {
		byAssume[t] = in.Assumptions[i]
	}
	byGuard := make(map[smt.Bool]int, len(b.guards))
	for i, g := range b.guards {
		byGuard[g] = i
	}
	for _, t := range b.sol.Core() {
		if l, ok := byAssume[t]; ok {
			lits = append(lits, l)
			continue
		}
		if i, ok := byGuard[t]; ok {
			atmosts = append(atmosts, i)
			continue
		}
		return nil, nil, fmt.Errorf("refcheck: core term %s is neither an assumption nor a guard on %v", t.Lit(), in)
	}
	return lits, atmosts, nil
}

// Check runs the full differential battery on one instance.
func Check(in *Instance, cfg smt.SolverConfig) error {
	if err := CheckStatus(in, cfg); err != nil {
		return err
	}
	return CheckOptimum(in, cfg)
}
