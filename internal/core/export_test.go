package core

import (
	"configsynth/internal/sat"
	"configsynth/internal/smt"
)

// RootAssigned returns how many variables the template's solver holds
// assigned at the root level — its root trail length — so the clone
// tests can check that searches on clones leave the template untouched.
func (t *Template) RootAssigned() int {
	s := t.syn.sol.SAT()
	n := 0
	for v := 0; v < s.NumVars(); v++ {
		if s.Value(sat.Var(v)) != sat.Undef {
			n++
		}
	}
	return n
}

// Digest returns the sha256 of the template's solver state
// (smt.Solver.Digest), in hex.
func (t *Template) Digest() string { return t.syn.Digest() }

// HookReserve puts hook in front of the encoder's capacity reservation
// until the returned function is called: it sees the variable and clause
// counts every encode reserves with, and the reservation itself happens
// only if it returns true. Tests use it to read the counts and to check
// that the encoding does not depend on the reservation.
func HookReserve(hook func(vars, clauses int) (proceed bool)) (restore func()) {
	old := reserve
	reserve = func(s *smt.Solver, vars, clauses, arenaWords int) {
		if hook(vars, clauses) {
			old(s, vars, clauses, arenaWords)
		}
	}
	return func() { reserve = old }
}
