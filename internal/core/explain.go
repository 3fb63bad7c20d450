package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"configsynth/internal/smt"
)

// Suggestion proposes a satisfiable value for one threshold that was
// dropped during unsat analysis.
type Suggestion struct {
	Threshold ThresholdKind
	// ValueTenths is the achievable value in tenths of the 0–10 scale
	// for isolation/usability; for cost it is the minimum budget in $K.
	ValueTenths int64
	// Exact reports that ValueTenths is the proven optimum. A descent
	// that a probe budget cut short leaves it false: the value is then
	// the best one proven achievable, and a better one may exist.
	Exact bool
}

// String renders the suggestion, marking one that is not the proven
// optimum.
func (s Suggestion) String() string {
	var text string
	switch s.Threshold {
	case ThresholdCost:
		text = fmt.Sprintf("set the cost budget to at least $%dK", s.ValueTenths)
	default:
		text = fmt.Sprintf("set the %s threshold to at most %.1f",
			s.Threshold, float64(s.ValueTenths)/10)
	}
	if !s.Exact {
		text += " (best proven; search cut short)"
	}
	return text
}

// Relaxation is one satisfiable choice found by Algorithm 1: dropping the
// listed thresholds makes the model satisfiable, and the suggestions give
// the closest satisfiable values for each dropped threshold.
type Relaxation struct {
	Dropped     []ThresholdKind
	Suggestions []Suggestion
}

// String renders the relaxation.
func (r Relaxation) String() string {
	names := make([]string, len(r.Dropped))
	for i, k := range r.Dropped {
		names[i] = k.String()
	}
	parts := make([]string, len(r.Suggestions))
	for i, s := range r.Suggestions {
		parts[i] = s.String()
	}
	return fmt.Sprintf("relax {%s}: %s", strings.Join(names, ", "), strings.Join(parts, "; "))
}

// Explanation is the result of the paper's Algorithm 1: the unsat core
// over the threshold constraints and the satisfiable relaxations of it.
type Explanation struct {
	// Core is the set of threshold constraints in the unsat core.
	Core []ThresholdKind
	// Relaxations lists satisfiable subsets of the core to drop, each
	// with suggested replacement values.
	Relaxations []Relaxation
}

// ErrSatisfiable is returned by Explain when the model is satisfiable
// and there is nothing to explain.
var ErrSatisfiable = errors.New("core: model is satisfiable; nothing to explain")

// Explain implements the paper's Algorithm 1 (systematic analysis of an
// UNSAT result). The connectivity requirements, invariants, and
// user-defined constraints are hard clauses; the three threshold
// constraints are assumptions. For every non-empty subset A of the unsat
// core it removes A, re-solves, and on SAT reports the achievable value
// of each dropped threshold. A re-check or a descent's first model that
// a budget or an interrupt leaves undecided fails the whole explanation
// with ErrBudgetExceeded rather than leaving a relaxation or a
// suggestion out of it. A descent that a probe budget cuts short still
// suggests the best value it proved, as every optimisation is anytime,
// and marks the suggestion inexact.
func (s *Synthesizer) Explain() (*Explanation, error) {
	own := s.assume(Query{Thresholds: s.prob.Thresholds})
	switch s.sol.Check(own...) {
	case smt.Sat:
		return nil, ErrSatisfiable
	case smt.Unknown:
		return nil, ErrBudgetExceeded
	}
	core := s.coreKinds()
	ex := &Explanation{Core: core}
	for _, dropped := range subsets(core) {
		rest := remaining(own, dropped)
		switch s.sol.Check(rest...) {
		case smt.Unsat:
			continue
		case smt.Unknown:
			return nil, ErrBudgetExceeded
		}
		relax := Relaxation{Dropped: dropped}
		for _, k := range dropped {
			// The best achievable value of a dropped threshold while the
			// remaining ones stay enforced.
			q := Query{Optimise: k}
			d, err := s.descend(q, rest)
			if err != nil {
				return nil, err
			}
			relax.Suggestions = append(relax.Suggestions, Suggestion{Threshold: k, ValueTenths: q.Value(d), Exact: d.Exact})
		}
		ex.Relaxations = append(ex.Relaxations, relax)
	}
	return ex, nil
}

// subsets enumerates all non-empty subsets of kinds, smallest first, as
// Algorithm 1 takes combinations of 1, 2, ..., |U| assumptions.
func subsets(kinds []ThresholdKind) [][]ThresholdKind {
	var out [][]ThresholdKind
	n := len(kinds)
	for size := 1; size <= n; size++ {
		for mask := 1; mask < 1<<n; mask++ {
			if popcount(mask) != size {
				continue
			}
			var sub []ThresholdKind
			for i := 0; i < n; i++ {
				if mask>>i&1 == 1 {
					sub = append(sub, kinds[i])
				}
			}
			out = append(out, sub)
		}
	}
	return out
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// remaining returns the problem's own guards (isolation, usability, cost)
// without those of the dropped thresholds.
func remaining(own []smt.Bool, dropped []ThresholdKind) []smt.Bool {
	var rest []smt.Bool
	for i, g := range own {
		if !slices.Contains(dropped, ThresholdKind(i+1)) {
			rest = append(rest, g)
		}
	}
	return rest
}
