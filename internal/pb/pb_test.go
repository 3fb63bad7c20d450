package pb

import (
	"errors"
	"math/rand"
	"testing"

	"configsynth/internal/sat"
)

func setup(n int) (*sat.Solver, *Theory, []sat.Lit) {
	s := sat.New()
	t := New(s)
	lits := make([]sat.Lit, n)
	for i := range lits {
		lits[i] = sat.PosLit(s.NewVar())
	}
	return s, t, lits
}

func ones(n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func TestRejectsMalformedConstraints(t *testing.T) {
	s, th, lits := setup(3)
	_ = s
	if err := th.AddAtMost(lits, []int64{1, 2}, 5); !errors.Is(err, ErrBadConstraint) {
		t.Errorf("length mismatch: got %v", err)
	}
	if err := th.AddAtMost(lits, []int64{1, 0, 1}, 5); !errors.Is(err, ErrBadConstraint) {
		t.Errorf("zero weight: got %v", err)
	}
	if err := th.AddAtMost([]sat.Lit{lits[0], lits[0]}, ones(2), 5); !errors.Is(err, ErrBadConstraint) {
		t.Errorf("duplicate var: got %v", err)
	}
}

func TestNegativeBoundIsRootViolated(t *testing.T) {
	_, th, lits := setup(2)
	if err := th.AddAtMost(lits, ones(2), -1); err != nil {
		t.Fatal(err)
	}
	if !th.RootViolated() {
		t.Fatal("negative bound should mark the store root-violated")
	}
}

func TestCardinalityAtMostK(t *testing.T) {
	for k := int64(0); k <= 5; k++ {
		s, th, lits := setup(5)
		if err := th.AddAtMost(lits, ones(5), k); err != nil {
			t.Fatal(err)
		}
		if got := s.Solve(); got != sat.Sat {
			t.Fatalf("k=%d: got %v, want sat", k, got)
		}
		var count int64
		for _, l := range lits {
			if s.ModelValue(l) == sat.True {
				count++
			}
		}
		if count > k {
			t.Fatalf("k=%d: model sets %d literals", k, count)
		}
	}
}

func TestAtMostKWithForcedTrue(t *testing.T) {
	// Force 3 of 5 true with an at-most-2: unsat.
	s, th, lits := setup(5)
	if err := th.AddAtMost(lits, ones(5), 2); err != nil {
		t.Fatal(err)
	}
	for _, l := range lits[:3] {
		if err := s.AddClause(l); err != nil {
			// Root-level theory propagation may surface the conflict here.
			return
		}
	}
	if got := s.Solve(); got != sat.Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
}

func TestWeightedBoundPropagation(t *testing.T) {
	// 5a + 3b + 2c <= 5. Forcing a must force !b (5+3>5) but allows
	// nothing else; forcing b,c (3+2=5) forbids a.
	s, th, lits := setup(3)
	a, b, c := lits[0], lits[1], lits[2]
	if err := th.AddAtMost(lits, []int64{5, 3, 2}, 5); err != nil {
		t.Fatal(err)
	}
	if got := s.Solve(a); got != sat.Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if s.ModelValue(b) != sat.False {
		t.Error("a=1 must force b=0")
	}
	if got := s.Solve(b, c, a); got != sat.Unsat {
		t.Fatalf("a&b&c: got %v, want unsat", got)
	}
	if got := s.Solve(b, c); got != sat.Sat {
		t.Fatalf("b&c: got %v, want sat", got)
	}
	if s.ModelValue(a) != sat.False {
		t.Error("b=c=1 must force a=0")
	}
}

func TestRootLevelUnitsCounted(t *testing.T) {
	// Units added before the constraint must be reflected in the sum.
	s, th, lits := setup(3)
	if err := s.AddClause(lits[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClause(lits[1]); err != nil {
		t.Fatal(err)
	}
	if err := th.AddAtMost(lits, ones(3), 1); err != nil {
		t.Fatal(err)
	}
	if !th.RootViolated() {
		t.Fatal("constraint violated by pre-existing units should be detected")
	}
}

func TestNegatedLiteralsInConstraint(t *testing.T) {
	// (!a) + (!b) <= 0 forces a and b.
	s, th, lits := setup(2)
	neg := []sat.Lit{lits[0].Not(), lits[1].Not()}
	if err := th.AddAtMost(neg, ones(2), 0); err != nil {
		t.Fatal(err)
	}
	if got := s.Solve(); got != sat.Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if s.ModelValue(lits[0]) != sat.True || s.ModelValue(lits[1]) != sat.True {
		t.Fatal("negated at-most-0 should force both variables true")
	}
}

func TestMultipleInteractingConstraints(t *testing.T) {
	// a+b<=1, b+c<=1, a+c<=1 and clause (a|b|c): exactly one of them.
	s, th, lits := setup(3)
	a, b, c := lits[0], lits[1], lits[2]
	for _, pair := range [][]sat.Lit{{a, b}, {b, c}, {a, c}} {
		if err := th.AddAtMost(pair, ones(2), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddClause(a, b, c); err != nil {
		t.Fatal(err)
	}
	if got := s.Solve(); got != sat.Sat {
		t.Fatalf("got %v, want sat", got)
	}
	count := 0
	for _, l := range lits {
		if s.ModelValue(l) == sat.True {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("want exactly one true, got %d", count)
	}
}

func TestUnsatCoreThroughTheory(t *testing.T) {
	// a+b+c <= 1; assumptions a, b, d -> core must include a and b, not d.
	s, th, lits := setup(4)
	a, b, c, d := lits[0], lits[1], lits[2], lits[3]
	if err := th.AddAtMost([]sat.Lit{a, b, c}, ones(3), 1); err != nil {
		t.Fatal(err)
	}
	if got := s.Solve(d, a, b); got != sat.Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
	core := s.UnsatCore()
	has := map[sat.Lit]bool{}
	for _, l := range core {
		has[l] = true
	}
	if !has[a] || !has[b] {
		t.Fatalf("core %v must contain a and b", core)
	}
	if has[d] {
		t.Fatalf("core %v must not contain d", core)
	}
}

// bruteForce checks whether an assignment satisfying all clauses and PB
// constraints exists, by enumeration.
type rawPB struct {
	lits    []sat.Lit
	weights []int64
	bound   int64
}

func bruteForce(nVars int, cnf [][]sat.Lit, pbs []rawPB) bool {
	litTrue := func(m int, l sat.Lit) bool {
		return (m>>uint(l.Var())&1 == 1) != l.Neg()
	}
	for m := 0; m < 1<<nVars; m++ {
		ok := true
		for _, cl := range cnf {
			cok := false
			for _, l := range cl {
				if litTrue(m, l) {
					cok = true
					break
				}
			}
			if !cok {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, c := range pbs {
			var sum int64
			for i, l := range c.lits {
				if litTrue(m, l) {
					sum += c.weights[i]
				}
			}
			if sum > c.bound {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandomPBAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 300; iter++ {
		nVars := 3 + rng.Intn(6)
		s := sat.New()
		th := New(s)
		vars := make([]sat.Lit, nVars)
		for i := range vars {
			vars[i] = sat.PosLit(s.NewVar())
		}
		// Random clauses.
		nClauses := rng.Intn(8)
		cnf := make([][]sat.Lit, nClauses)
		addFailed := false
		for i := range cnf {
			k := 1 + rng.Intn(3)
			cl := make([]sat.Lit, k)
			for j := range cl {
				cl[j] = sat.MkLit(sat.Var(rng.Intn(nVars)), rng.Intn(2) == 0)
			}
			cnf[i] = cl
			if s.AddClause(cl...) != nil {
				addFailed = true
			}
		}
		// Random PB constraints over distinct vars.
		nPB := 1 + rng.Intn(3)
		pbs := make([]rawPB, 0, nPB)
		for i := 0; i < nPB; i++ {
			perm := rng.Perm(nVars)
			k := 2 + rng.Intn(nVars-1)
			var c rawPB
			var total int64
			for _, vi := range perm[:k] {
				w := int64(1 + rng.Intn(5))
				c.lits = append(c.lits, sat.MkLit(sat.Var(vi), rng.Intn(2) == 0))
				c.weights = append(c.weights, w)
				total += w
			}
			c.bound = int64(rng.Intn(int(total + 1)))
			pbs = append(pbs, c)
			if err := th.AddAtMost(c.lits, c.weights, c.bound); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
		}
		want := bruteForce(nVars, cnf, pbs)
		if addFailed || th.RootViolated() {
			if want {
				t.Fatalf("iter %d: eager unsat but formula is sat", iter)
			}
			continue
		}
		got := s.Solve()
		if want && got != sat.Sat {
			t.Fatalf("iter %d: got %v, want sat", iter, got)
		}
		if !want && got != sat.Unsat {
			t.Fatalf("iter %d: got %v, want unsat", iter, got)
		}
		if got == sat.Sat {
			// Verify the model against all constraints.
			for _, cl := range cnf {
				ok := false
				for _, l := range cl {
					if s.ModelValue(l) == sat.True {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model violates clause", iter)
				}
			}
			for _, c := range pbs {
				var sum int64
				for i, l := range c.lits {
					if s.ModelValue(l) == sat.True {
						sum += c.weights[i]
					}
				}
				if sum > c.bound {
					t.Fatalf("iter %d: model violates PB constraint (%d > %d)", iter, sum, c.bound)
				}
			}
		}
	}
}

func TestIncrementalSolvesWithAssumptions(t *testing.T) {
	// Repeated solving with different assumptions must keep counters
	// consistent (exercises the level restore).
	s, th, lits := setup(6)
	if err := th.AddAtMost(lits, []int64{4, 3, 3, 2, 2, 1}, 7); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		var as []sat.Lit
		var sum int64
		weights := []int64{4, 3, 3, 2, 2, 1}
		for i, l := range lits {
			if rng.Intn(2) == 0 {
				as = append(as, l)
				sum += weights[i]
			}
		}
		got := s.Solve(as...)
		want := sat.Sat
		if sum > 7 {
			want = sat.Unsat
		}
		if got != want {
			t.Fatalf("round %d: got %v, want %v (sum=%d)", round, got, want, sum)
		}
	}
}

func TestAddAtMostForcesHeavyLiteralsAtRoot(t *testing.T) {
	// Regression: a literal whose weight exceeds the bound was documented
	// as "immediately forced false via a unit clause", but nothing was
	// forced until the next Solve's Propagate, so a subsequent AddClause
	// saw a stale root assignment and failed to simplify.
	s, th, lits := setup(3)
	if err := th.AddAtMost(lits[:2], []int64{5, 1}, 3); err != nil {
		t.Fatal(err)
	}
	if got := s.ValueLit(lits[0]); got != sat.False {
		t.Fatalf("heavy literal not forced at add time: value %v, want false", got)
	}
	// Root simplification must now drop the forced-false literal: the
	// clause (lits[0] ∨ lits[2]) reduces to the unit lits[2].
	if err := s.AddClause(lits[0], lits[2]); err != nil {
		t.Fatal(err)
	}
	if got := s.ValueLit(lits[2]); got != sat.True {
		t.Fatalf("clause simplification saw a stale assignment: lits[2] = %v, want true", got)
	}
	if got := s.Solve(); got != sat.Sat {
		t.Fatalf("got %v, want sat", got)
	}
}

func TestAddAtMostForcingAccountsForRootTrueLiterals(t *testing.T) {
	// With lits[0] already true at the root (weight 2 of bound 3), the
	// remaining slack is 1, so the weight-2 literal lits[1] must be
	// forced false even though its weight does not exceed the bound.
	s, th, lits := setup(3)
	if err := s.AddClause(lits[0]); err != nil {
		t.Fatal(err)
	}
	if err := th.AddAtMost(lits, []int64{2, 2, 1}, 3); err != nil {
		t.Fatal(err)
	}
	if got := s.ValueLit(lits[1]); got != sat.False {
		t.Fatalf("lits[1] = %v, want false (slack 1 < weight 2)", got)
	}
	if got := s.ValueLit(lits[2]); got != sat.Undef {
		t.Fatalf("lits[2] = %v, want undef (weight 1 fits the slack)", got)
	}
}

func TestAddAtMostForcingCascadeConflict(t *testing.T) {
	// Forcing can cascade into a root conflict: the clause requires
	// lits[0], the constraint forbids it.
	s, th, lits := setup(2)
	if err := s.AddClause(lits[0]); err != nil {
		t.Fatal(err)
	}
	if err := th.AddAtMost(lits[1:], []int64{4}, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClause(lits[1]); err == nil {
		t.Fatal("asserting the forced-false literal should report root unsat")
	}
}
