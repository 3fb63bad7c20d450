package smt

import "testing"

// Regression test for a session-reuse bugfix: stale model reads after a
// non-Sat check must fail loudly. (That repeated descents on one solver
// match fresh solvers is checked by internal/refcheck's CheckOptimum.)

// mustPanic runs f and reports whether it panicked.
func mustPanic(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

func TestValueAfterNonSatCheckPanics(t *testing.T) {
	s := NewSolver()
	a, b := s.NewBool(), s.NewBool()
	s.AddClause(a, b)
	if got := s.Check(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if !s.HasModel() {
		t.Fatal("HasModel must be true after a Sat check")
	}
	_ = s.Value(a) // fine: model is fresh

	// An Unsat check (via assumptions) invalidates the model: the old
	// assignment is for a different query and serving it silently is the
	// stale-read landmine sessions would trip on.
	if got := s.Check(a.Not(), b.Not()); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
	if s.HasModel() {
		t.Fatal("HasModel must be false after an unsat check")
	}
	if !mustPanic(func() { s.Value(a) }) {
		t.Fatal("Value after a non-Sat check must panic, not serve the stale model")
	}
	var sum Sum
	sum.Add(a, 1)
	sum.Add(b, 2)
	if !mustPanic(func() { s.EvalSum(&sum) }) {
		t.Fatal("EvalSum after a non-Sat check must panic, not evaluate the stale model")
	}

	// A later Sat check restores readability.
	if got := s.Check(a); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if !s.Value(a) {
		t.Fatal("a was assumed true")
	}
}
