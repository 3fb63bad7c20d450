package core

import "configsynth/internal/sat"

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
