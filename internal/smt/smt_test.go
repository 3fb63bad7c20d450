package smt

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestBasicClauseLogic(t *testing.T) {
	s := NewSolver()
	a := s.NewBool()
	b := s.NewBool()
	s.AddImplies(a, b)
	s.AddUnit(a)
	if got := s.Check(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if !s.Value(a) || !s.Value(b) {
		t.Fatal("a -> b with a asserted must set both")
	}
}

func TestIff(t *testing.T) {
	s := NewSolver()
	a, b := s.NewBool(), s.NewBool()
	s.AddIff(a, b)
	s.AddUnit(a.Not())
	if got := s.Check(); got != Sat {
		t.Fatalf("got %v", got)
	}
	if s.Value(b) {
		t.Fatal("iff: b must follow a")
	}
}

func TestTrueFalseTerms(t *testing.T) {
	s := NewSolver()
	if got := s.Check(); got != Sat {
		t.Fatal("empty solver must be sat")
	}
	tt, ff := s.True(), s.False()
	if got := s.Check(); got != Sat {
		t.Fatal("want sat")
	}
	if !s.Value(tt) || s.Value(ff) {
		t.Fatal("True/False terms wrong")
	}
}

func TestExactlyOne(t *testing.T) {
	s := NewSolver()
	terms := []Bool{s.NewBool(), s.NewBool(), s.NewBool(), s.NewBool()}
	s.AddExactlyOne(terms...)
	if got := s.Check(); got != Sat {
		t.Fatalf("got %v", got)
	}
	n := 0
	for _, x := range terms {
		if s.Value(x) {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("exactly-one violated: %d true", n)
	}
	// Forcing two of them is unsat.
	if got := s.Check(terms[0], terms[2]); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
}

func TestAtMostAndAtLeast(t *testing.T) {
	s := NewSolver()
	var sum Sum
	terms := make([]Bool, 4)
	for i := range terms {
		terms[i] = s.NewBool()
		sum.Add(terms[i], int64(i+1)) // weights 1..4, total 10
	}
	if sum.Total() != 10 {
		t.Fatalf("total = %d", sum.Total())
	}
	s.AssertAtMost(&sum, 6)
	s.AssertAtLeast(&sum, 4)
	if got := s.Check(); got != Sat {
		t.Fatalf("got %v", got)
	}
	v := s.EvalSum(&sum)
	if v < 4 || v > 6 {
		t.Fatalf("sum %d outside [4,6]", v)
	}
	// 4 alone has weight 4, adding 3 makes 7 > 6.
	if got := s.Check(terms[3], terms[2]); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
}

func TestAtLeastGreaterThanTotalIsUnsat(t *testing.T) {
	s := NewSolver()
	var sum Sum
	sum.Add(s.NewBool(), 3)
	s.AssertAtLeast(&sum, 4)
	if got := s.Check(); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
}

func TestAtMostNegativeBoundIsUnsat(t *testing.T) {
	s := NewSolver()
	var sum Sum
	sum.Add(s.NewBool(), 1)
	s.AssertAtMost(&sum, -1)
	if got := s.Check(); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
}

func TestGuardedAtMost(t *testing.T) {
	s := NewSolver()
	g := s.NewBool()
	var sum Sum
	terms := make([]Bool, 3)
	for i := range terms {
		terms[i] = s.NewBool()
		sum.Add(terms[i], 2)
	}
	s.AssertAtMostIf(g, &sum, 2) // if g: at most one term
	// Without the guard, all three can be true.
	if got := s.Check(terms[0], terms[1], terms[2]); got != Sat {
		t.Fatalf("unguarded: got %v", got)
	}
	// With the guard, two terms exceed the bound.
	if got := s.Check(g, terms[0], terms[1]); got != Unsat {
		t.Fatalf("guarded: got %v, want unsat", got)
	}
	if got := s.Check(g, terms[0]); got != Sat {
		t.Fatalf("guarded single: got %v, want sat", got)
	}
}

func TestGuardedAtLeast(t *testing.T) {
	s := NewSolver()
	g := s.NewBool()
	var sum Sum
	terms := make([]Bool, 3)
	for i := range terms {
		terms[i] = s.NewBool()
		sum.Add(terms[i], 1)
	}
	s.AssertAtLeastIf(g, &sum, 2)
	if got := s.Check(g, terms[0].Not(), terms[1].Not()); got != Unsat {
		t.Fatalf("got %v, want unsat (only one term left)", got)
	}
	if got := s.Check(g); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if s.EvalSum(&sum) < 2 {
		t.Fatalf("guarded at-least not enforced: sum=%d", s.EvalSum(&sum))
	}
	// Guard false: no obligation.
	if got := s.Check(g.Not(), terms[0].Not(), terms[1].Not(), terms[2].Not()); got != Sat {
		t.Fatalf("got %v, want sat with guard off", got)
	}
}

func TestGuardedAtLeastImpossibleBoundForcesGuardOff(t *testing.T) {
	s := NewSolver()
	g := s.NewBool()
	var sum Sum
	sum.Add(s.NewBool(), 1)
	s.AssertAtLeastIf(g, &sum, 5)
	if got := s.Check(g); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
	if got := s.Check(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
}

func TestCoreNamesAssumptions(t *testing.T) {
	s := NewSolver()
	a, b := s.NewBool(), s.NewBool()
	c := s.NewBool()
	s.AddClause(a.Not(), b.Not())
	if got := s.Check(c, a, b); got != Unsat {
		t.Fatalf("got %v", got)
	}
	core := s.Core()
	if !slices.Contains(core, a) || !slices.Contains(core, b) || slices.Contains(core, c) {
		t.Fatalf("core %v, want a=%v and b=%v and not c=%v", core, a.Lit(), b.Lit(), c.Lit())
	}
}

func TestStatsPopulated(t *testing.T) {
	s := NewSolver()
	var sum Sum
	for i := 0; i < 10; i++ {
		sum.Add(s.NewBool(), 1)
	}
	s.AssertAtMost(&sum, 5)
	if got := s.Check(); got != Sat {
		t.Fatal("want sat")
	}
	st := s.Stats()
	if st.Vars < 10 || st.PBConstraints != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestQuickSumEvaluation(t *testing.T) {
	// Property: for a forced assignment, EvalSum equals direct
	// evaluation.
	f := func(mask uint8) bool {
		s := NewSolver()
		var sum Sum
		var want int64
		for i := 0; i < 8; i++ {
			b := s.NewBool()
			w := int64(i + 1)
			sum.Add(b, w)
			if mask>>uint(i)&1 == 1 {
				s.AddUnit(b)
				want += w
			} else {
				s.AddUnit(b.Not())
			}
		}
		if s.Check() != Sat {
			return false
		}
		return s.EvalSum(&sum) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyModeChecksSatAndUnsat(t *testing.T) {
	s := NewSolver()
	s.SetVerify(true)
	if !s.Verifying() {
		t.Fatal("Verifying() should report true after SetVerify(true)")
	}
	a, b, c := s.NewBool(), s.NewBool(), s.NewBool()
	s.AddClause(a, b)
	s.AddClause(a.Not(), c)
	var sum Sum
	sum.Add(a, 2)
	sum.Add(b, 2)
	sum.Add(c, 1)
	s.AssertAtMost(&sum, 3)
	if got := s.Check(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if err := s.VerifyModel(); err != nil {
		t.Fatalf("VerifyModel on a genuine model: %v", err)
	}
	// Unsat under assumptions: a and b both true exceed the PB bound.
	if got := s.Check(a, b); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
	core := s.Core()
	if len(core) == 0 {
		t.Fatal("want a non-empty core")
	}
	if err := s.VerifyCore(); err != nil {
		t.Fatalf("VerifyCore on a genuine core: %v", err)
	}
	if got := s.Core(); len(got) != len(core) {
		t.Fatalf("VerifyCore clobbered the stored core: %d entries, want %d", len(got), len(core))
	}
	// Verification must not disturb subsequent solving.
	if got := s.Check(); got != Sat {
		t.Fatalf("got %v after verification, want sat", got)
	}
}

// stableByWeight is the order byWeight must produce, by its definition:
// the term indexes stably sorted by descending weight.
func stableByWeight(weights []int64) []int32 {
	idx := make([]int32, len(weights))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortStableFunc(idx, func(a, b int32) int { return cmp.Compare(weights[b], weights[a]) })
	return idx
}

// TestByWeightIsTheStableSort holds byWeight's counting order to the
// stable descending sort it replaced, term for term, on sums with many
// ties, a single weight, all-distinct weights and random mixes.
func TestByWeightIsTheStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	shapes := map[string]func(i int) int64{
		"single weight": func(int) int64 { return 7 },
		"all distinct":  func(i int) int64 { return int64(1 + rng.IntN(1<<40)*64 + i%64) },
		"ties, cycling": func(i int) int64 { return int64(10 + 15*(i%6)) },
		"ties, random":  func(int) int64 { return int64(1 + rng.IntN(5)) },
		"wide range":    func(int) int64 { return int64(1 + rng.IntN(1000)) },
	}
	for name, weight := range shapes {
		for _, n := range []int{0, 1, 2, 17, 1000} {
			s := NewSolver()
			sum := &Sum{}
			for i := range n {
				sum.Add(s.NewBool(), weight(i))
			}
			got := sum.byWeight()
			want := stableByWeight(sum.weights)
			if len(got.lits) != n || len(got.weights) != n {
				t.Fatalf("%s, %d terms: order has %d literals and %d weights", name, n, len(got.lits), len(got.weights))
			}
			for k, i := range want {
				if got.lits[k] != sum.terms[i].lit || got.weights[k] != sum.weights[i] {
					t.Fatalf("%s, %d terms: position %d holds (%v, %d), the stable sort puts term %d (%v, %d) there",
						name, n, k, got.lits[k], got.weights[k], i, sum.terms[i].lit, sum.weights[i])
				}
			}
		}
	}
	// A sum grown after its order was cached is ordered again in full.
	s := NewSolver()
	sum := &Sum{}
	for i := range 10 {
		sum.Add(s.NewBool(), int64(1+i%3))
	}
	sum.byWeight()
	for i := range 10 {
		sum.Add(s.NewBool(), int64(1+i%4))
	}
	if got, want := sum.byWeight(), stableByWeight(sum.weights); len(got.lits) != 20 || got.lits[0] != sum.terms[want[0]].lit || got.lits[19] != sum.terms[want[19]].lit {
		t.Fatalf("the order of a grown sum was not rebuilt: %v", got.weights)
	}
}

// BenchmarkByWeight orders an isolation-shaped sum: 5 000 flows over six
// pattern levels, the terms of each flow in pattern order.
func BenchmarkByWeight(b *testing.B) {
	s := NewSolver()
	sum := &Sum{}
	for i := range 30_000 {
		sum.Add(s.NewBool(), int64(10+15*(i%6)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		sum.order.Store(nil)
		sum.byWeight()
	}
}
