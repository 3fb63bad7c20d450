package smt

import "testing"

// countProjectedModels enumerates the solver's models projected onto the
// given terms, blocking each projection as it is found.
func countProjectedModels(t *testing.T, s *Solver, terms []Bool) int {
	t.Helper()
	count := 0
	for {
		switch s.Check() {
		case Sat:
		case Unsat:
			return count
		default:
			t.Fatal("unexpected Unknown while enumerating models")
		}
		count++
		if count > 1000 {
			t.Fatal("runaway model enumeration")
		}
		block := make([]Bool, len(terms))
		for i, x := range terms {
			if s.Value(x) {
				block[i] = x.Not()
			} else {
				block[i] = x
			}
		}
		s.AddClause(block...)
	}
}

// TestAtMostOneLadderModelCount compares the sequential (ladder)
// encoding, used above the pairwise cutoff, against the pairwise
// encoding by exact projected model count: an at-most-one over n free
// variables has exactly n+1 assignments.
func TestAtMostOneLadderModelCount(t *testing.T) {
	for _, n := range []int{9, 12} {
		counts := make([]int, 2)
		for variant := 0; variant < 2; variant++ {
			s := NewSolver()
			xs := make([]Bool, n)
			for i := range xs {
				xs[i] = s.NewBool()
			}
			if variant == 0 {
				// Forced pairwise, bypassing the cutoff.
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						s.AddClause(xs[i].Not(), xs[j].Not())
					}
				}
			} else {
				s.AddAtMostOne(xs...) // n > pairwiseAtMostOneMax → ladder
			}
			counts[variant] = countProjectedModels(t, s, xs)
		}
		if counts[0] != n+1 || counts[1] != n+1 {
			t.Errorf("n=%d: pairwise %d models, ladder %d models, want %d",
				n, counts[0], counts[1], n+1)
		}
	}
}

// TestAtMostOneLadderRejectsTwo checks the ladder encoding actually
// forbids two simultaneous terms.
func TestAtMostOneLadderRejectsTwo(t *testing.T) {
	s := NewSolver()
	n := 10
	xs := make([]Bool, n)
	for i := range xs {
		xs[i] = s.NewBool()
	}
	s.AddAtMostOne(xs...)
	for _, pair := range [][2]int{{0, 1}, {0, 9}, {4, 5}, {8, 9}} {
		if st := s.Check(xs[pair[0]], xs[pair[1]]); st != Unsat {
			t.Errorf("terms %v both true = %v, want Unsat", pair, st)
		}
	}
	for i := 0; i < n; i++ {
		if st := s.Check(xs[i]); st != Sat {
			t.Errorf("single term %d = %v, want Sat", i, st)
		}
	}
}

// TestUnsatCoreDeterminism checks that repeated Check calls with the
// same assumptions return the same unsat core every time, even as the
// solver accumulates learnt clauses between calls.
func TestUnsatCoreDeterminism(t *testing.T) {
	s := NewSolver()
	a := s.NewBool()
	b := s.NewBool()
	c := s.NewBool()
	d := s.NewBool()
	// a ∧ b is contradictory through an intermediate chain; c, d are
	// irrelevant bystanders.
	m := s.NewBool()
	s.AddImplies(a, m)
	s.AddClause(b.Not(), m.Not())

	var first []Bool
	for i := 0; i < 5; i++ {
		if st := s.Check(a, b, c, d); st != Unsat {
			t.Fatalf("check %d = %v, want Unsat", i, st)
		}
		core := s.Core()
		if i == 0 {
			first = core
			for _, x := range core {
				if x == c || x == d {
					t.Errorf("bystander %v in core %v", x.Lit(), core)
				}
			}
			if len(core) == 0 {
				t.Fatal("empty core for assumption conflict")
			}
			continue
		}
		if len(core) != len(first) {
			t.Fatalf("check %d core %v differs from first", i, core)
		}
		for j := range core {
			if core[j] != first[j] {
				t.Fatalf("check %d core %v differs from first at %d", i, core, j)
			}
		}
	}
}
