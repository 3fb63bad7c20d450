package sat_test

import (
	"crypto/sha256"
	"math/rand"
	"reflect"
	"testing"

	"configsynth/internal/pb"
	"configsynth/internal/sat"
)

// trueSet is an Unassigner theory that keeps the set of true literals,
// so that a solver's state shows whether it was told of every undone
// literal.
type trueSet struct{ on map[sat.Lit]bool }

func (t *trueSet) Assign(l sat.Lit)                  { t.on[l] = true }
func (t *trueSet) Unassign(l sat.Lit)                { delete(t.on, l) }
func (t *trueSet) Propagate(s *sat.Solver) []sat.Lit { return nil }

// deferredInstance is a satisfiable random 3-CNF over 40 variables with
// a PB at-most over the first twelve and both theory kinds attached,
// searched under three assumptions: its trail stands at several
// decision levels when Solve returns.
type deferredInstance struct {
	s      *sat.Solver
	vars   []sat.Lit
	assume []sat.Lit
}

func newDeferredInstance(t *testing.T) deferredInstance {
	t.Helper()
	for seed := int64(1); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sat.New()
		in := deferredInstance{s: s}
		for range 40 {
			in.vars = append(in.vars, sat.PosLit(s.NewVar()))
		}
		th := pb.New(s)
		s.SetTheory(&trueSet{on: map[sat.Lit]bool{}})
		lit := func() sat.Lit { return sat.MkLit(sat.Var(rng.Intn(40)), rng.Intn(2) == 0) }
		for range 150 {
			if err := s.AddClause(lit(), lit(), lit()); err != nil {
				break
			}
		}
		weights := make([]int64, 12)
		for i := range weights {
			weights[i] = int64(1 + rng.Intn(4))
		}
		if err := th.AddAtMost(in.vars[:12], weights, 9); err != nil {
			t.Fatal(err)
		}
		in.assume = []sat.Lit{in.vars[20].Not(), in.vars[30], in.vars[35]}
		if s.Solve(in.assume...) == sat.Sat {
			return in
		}
	}
	t.Fatal("no satisfiable instance among the seeds")
	return deferredInstance{}
}

// TestEntriesBacktrackAsSolveUsedTo: Solve leaves its trail standing,
// and every exported entry that needs the root backtracks first. After
// a Sat, each entry must leave the solver — and return — exactly what
// it does on a solver that backtracked at the end of Solve, and the
// next search must run the same.
func TestEntriesBacktrackAsSolveUsedTo(t *testing.T) {
	entries := map[string]func(deferredInstance) any{
		"Solve":            func(in deferredInstance) any { return in.s.Solve(in.vars[5], in.vars[6].Not()) },
		"AddClause":        func(in deferredInstance) any { return in.s.AddClause(in.vars[1], in.vars[2].Not(), in.vars[3]) },
		"AddClause/unit":   func(in deferredInstance) any { return in.s.AddClause(in.vars[4]) },
		"NewVar":           func(in deferredInstance) any { return in.s.NewVar() },
		"Reconfigure":      func(in deferredInstance) any { return in.s.Reconfigure(sat.Config{Seed: 7, PhaseTrue: true}) },
		"ResetSearchState": func(in deferredInstance) any { in.s.ResetSearchState(); return nil },
		"SetTheory": func(in deferredInstance) any {
			in.s.SetTheory(&trueSet{on: map[sat.Lit]bool{}})
			return nil
		},
		"Reserve": func(in deferredInstance) any { in.s.Reserve(100, 300, 2000); return nil },
		"Digest": func(in deferredInstance) any {
			h := sha256.New()
			in.s.Digest(h)
			return h.Sum(nil)
		},
		"BacktrackToRoot": func(in deferredInstance) any { in.s.BacktrackToRoot(); return nil },
		"Clone": func(in deferredInstance) any {
			c, err := in.s.Clone(sat.Config{Seed: 3})
			if err != nil {
				return err
			}
			pb.New(c)
			return c
		},
		"CloneInto": func(in deferredInstance) any {
			c, err := in.s.CloneInto(sat.New(), sat.Config{Seed: 3})
			if err != nil {
				return err
			}
			pb.New(c)
			return c
		},
	}
	for name, entry := range entries {
		t.Run(name, func(t *testing.T) {
			deferred, eager := newDeferredInstance(t), newDeferredInstance(t)
			eager.s.BacktrackToRoot() // where Solve used to leave it
			if reflect.DeepEqual(deferred.s, eager.s) {
				t.Fatal("Solve left the root behind it; the test would compare nothing")
			}
			got, want := entry(deferred), entry(eager)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("the entry returned %v after a standing trail, %v after a backtrack", got, want)
			}
			if !reflect.DeepEqual(deferred.s, eager.s) {
				t.Fatal("the entry left a solver that differs from one that was backtracked at the end of Solve")
			}
			if a, b := deferred.s.Solve(deferred.assume[1:]...), eager.s.Solve(eager.assume[1:]...); a != b {
				t.Fatalf("the next search answered %v, against %v", a, b)
			}
			if !reflect.DeepEqual(deferred.s, eager.s) {
				t.Fatal("the next search diverged")
			}
		})
	}
}

// TestCloneIntoMatchesClone: a clone built in a spare's memory is the
// clone Clone builds, whatever the spare held — a solver left with its
// trail standing, a smaller one, a clone — by digest, by the search it
// runs next and by what that search counts.
func TestCloneIntoMatchesClone(t *testing.T) {
	small := sat.New()
	for range 3 {
		small.NewVar()
	}
	clone, err := newDeferredInstance(t).s.Clone(sat.Config{})
	if err != nil {
		t.Fatal(err)
	}
	spares := map[string]*sat.Solver{"trail standing": newDeferredInstance(t).s, "smaller": small, "a clone": clone}
	for name, spare := range spares {
		t.Run(name, func(t *testing.T) {
			src := newDeferredInstance(t)
			src.s.BacktrackToRoot()
			src.s.AddClause(src.vars[9], src.vars[10]) // a source that grew since its search
			cfg := sat.Config{Seed: 11, RandomFreqMilli: 20}
			want, err := src.s.Clone(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := src.s.CloneInto(spare, cfg)
			if err != nil {
				t.Fatal(err)
			}
			digest := func(s *sat.Solver) string {
				h := sha256.New()
				s.Digest(h)
				return string(h.Sum(nil))
			}
			if digest(got) != digest(want) {
				t.Fatal("the clone built in the spare differs from Clone's by digest")
			}
			pb.New(got)
			pb.New(want)
			for i, a := range src.assume {
				if g, w := got.Solve(a), want.Solve(a); g != w || got.Stats() != want.Stats() {
					t.Fatalf("search %d: %v %+v, against Clone's %v %+v", i, g, got.Stats(), w, want.Stats())
				}
			}
		})
	}
}
