// Package refcheck is ConfigSynth's correctness-tooling layer: a
// brute-force reference solver for small CNF + pseudo-Boolean formulas,
// a deterministic random-instance generator, and a differential-check
// battery that cross-validates internal/sat, internal/pb, internal/smt
// and core.Query.Bisect, the one optimisation descent production runs,
// against the reference — status equality, model soundness, unsat-core
// soundness, and Bisect's optima, probe statuses and exactness under
// injected Unknowns. The Go native fuzz targets and the seeded
// differential tests in this package are the burn-down harness for
// solver bugs.
package refcheck

import (
	"fmt"
	"strings"
)

// Lit is a DIMACS-style literal: +v means variable v is true, -v means
// it is false. Variables are 1-based; 0 is invalid.
type Lit int

// Var returns the 1-based variable of the literal.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Pos reports whether the literal is the positive polarity.
func (l Lit) Pos() bool { return l > 0 }

// AtMost is the pseudo-Boolean constraint Σ Weights[i]·Lits[i] ≤ Bound,
// where a literal contributes its weight when it evaluates true.
type AtMost struct {
	Lits    []Lit
	Weights []int64
	Bound   int64
}

// Instance is a propositional formula — CNF clauses plus pseudo-Boolean
// at-most constraints — with an optional linear objective and a set of
// assumption literals, mirroring exactly what internal/smt can express.
type Instance struct {
	// Vars is the number of variables, numbered 1..Vars.
	Vars int
	// Clauses are disjunctions of literals.
	Clauses [][]Lit
	// AtMosts are the pseudo-Boolean constraints.
	AtMosts []AtMost
	// ObjLits/ObjWeights define the objective Σ w·lit that the Bisect
	// differential maximises and minimises; empty means no objective.
	ObjLits    []Lit
	ObjWeights []int64
	// Assumptions are literals assumed true for the check, the smt-level
	// assumption terms from which unsat cores are drawn.
	Assumptions []Lit
}

// MaxVars bounds exhaustive enumeration: 2^22 assignments is the most
// the reference solver will walk.
const MaxVars = 22

func (in *Instance) guard() {
	if in.Vars > MaxVars {
		panic(fmt.Sprintf("refcheck: %d variables exceed the brute-force limit of %d", in.Vars, MaxVars))
	}
}

// evalLit evaluates l under the assignment mask (bit v-1 set ⇔ var v
// true).
func evalLit(mask uint32, l Lit) bool {
	return (mask>>(l.Var()-1))&1 == 1 == l.Pos()
}

// satisfies reports whether the assignment satisfies every clause,
// every at-most constraint, and every unit literal.
func (in *Instance) satisfies(mask uint32, units []Lit) bool {
	for _, u := range units {
		if !evalLit(mask, u) {
			return false
		}
	}
clauses:
	for _, c := range in.Clauses {
		for _, l := range c {
			if evalLit(mask, l) {
				continue clauses
			}
		}
		return false
	}
	for _, am := range in.AtMosts {
		var sum int64
		for i, l := range am.Lits {
			if evalLit(mask, l) {
				sum += am.Weights[i]
			}
		}
		if sum > am.Bound {
			return false
		}
	}
	return true
}

// objective evaluates the instance's objective under the assignment.
func (in *Instance) objective(mask uint32) int64 {
	var sum int64
	for i, l := range in.ObjLits {
		if evalLit(mask, l) {
			sum += in.ObjWeights[i]
		}
	}
	return sum
}

// SolveUnder exhaustively decides satisfiability of the formula with
// the given extra unit literals (the instance's own Assumptions are NOT
// implied — pass them explicitly, or use Solve).
func SolveUnder(in *Instance, units []Lit) bool {
	in.guard()
	for mask := uint32(0); mask < 1<<in.Vars; mask++ {
		if in.satisfies(mask, units) {
			return true
		}
	}
	return false
}

// Solve decides satisfiability under the instance's assumptions.
func Solve(in *Instance) bool { return SolveUnder(in, in.Assumptions) }

// Optima computes the exact minimum and maximum of the objective over
// all models under the instance's assumptions. ok is false when no model
// exists.
func Optima(in *Instance) (lo, hi int64, ok bool) {
	in.guard()
	for mask := uint32(0); mask < 1<<in.Vars; mask++ {
		if !in.satisfies(mask, in.Assumptions) {
			continue
		}
		v := in.objective(mask)
		if !ok || v < lo {
			lo = v
		}
		if !ok || v > hi {
			hi = v
		}
		ok = true
	}
	return lo, hi, ok
}

// Violations lists every constraint of the instance (clauses, at-most
// constraints, and the given unit literals) that the assignment val
// violates. An empty result means val is a model.
func Violations(in *Instance, units []Lit, val func(v int) bool) []string {
	evalL := func(l Lit) bool { return val(l.Var()) == l.Pos() }
	var out []string
	for _, u := range units {
		if !evalL(u) {
			out = append(out, fmt.Sprintf("assumption %d is false", u))
		}
	}
clauses:
	for ci, c := range in.Clauses {
		for _, l := range c {
			if evalL(l) {
				continue clauses
			}
		}
		out = append(out, fmt.Sprintf("clause %d %v has no true literal", ci, c))
	}
	for ai, am := range in.AtMosts {
		var sum int64
		for i, l := range am.Lits {
			if evalL(l) {
				sum += am.Weights[i]
			}
		}
		if sum > am.Bound {
			out = append(out, fmt.Sprintf("at-most %d: sum %d > bound %d", ai, sum, am.Bound))
		}
	}
	return out
}

// String renders the instance in a compact DIMACS-like form for
// failure reports.
func (in *Instance) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "vars=%d", in.Vars)
	for _, c := range in.Clauses {
		fmt.Fprintf(&b, " clause%v", c)
	}
	for _, am := range in.AtMosts {
		b.WriteString(" atmost(")
		for i, l := range am.Lits {
			if i > 0 {
				b.WriteByte('+')
			}
			fmt.Fprintf(&b, "%d·%d", am.Weights[i], l)
		}
		fmt.Fprintf(&b, "≤%d)", am.Bound)
	}
	if len(in.ObjLits) > 0 {
		b.WriteString(" obj(")
		for i, l := range in.ObjLits {
			if i > 0 {
				b.WriteByte('+')
			}
			fmt.Fprintf(&b, "%d·%d", in.ObjWeights[i], l)
		}
		b.WriteByte(')')
	}
	if len(in.Assumptions) > 0 {
		fmt.Fprintf(&b, " assume%v", in.Assumptions)
	}
	return b.String()
}
