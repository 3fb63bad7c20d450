package pb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"configsynth/internal/sat"
)

// explainByScan is Explain with the weight of the literal forced false
// found by scanning the constraint's terms, as Explain first did: the
// reference TestExplainMatchesScan holds Explain to.
func explainByScan(t *Theory, p sat.Lit, tag int32) []sat.Lit {
	c := t.constraints[tag]
	l := p.Not()
	var target int64
	for _, tm := range c.terms {
		if tm.lit == l {
			target = c.bound - tm.weight
			break
		}
	}
	s := t.solver
	pos := s.TrailPos(p.Var())
	out := []sat.Lit{p}
	var acc int64
	for _, tm := range c.terms {
		if acc > target {
			break
		}
		if tm.lit.Var() != p.Var() && s.ValueLit(tm.lit) == sat.True &&
			s.TrailPos(tm.lit.Var()) < pos {
			out = append(out, tm.lit.Not())
			acc += tm.weight
		}
	}
	return out
}

// explainChecker is a theory attached after the store that, at every
// propagation of a search, asks the store to explain every assigned
// literal p whose negation is a term of some constraint — whether or not
// that constraint implied it, Explain is a function of (p, tag) and the
// trail — and compares each reason with explainByScan's.
type explainChecker struct {
	s        *sat.Solver
	th       *Theory
	err      error
	compared int
}

func (c *explainChecker) Assign(sat.Lit) {}

func (c *explainChecker) Propagate(s *sat.Solver) []sat.Lit {
	if c.err != nil {
		return nil
	}
	for v := range s.NumVars() {
		p := sat.PosLit(sat.Var(v))
		switch s.ValueLit(p) {
		case sat.Undef:
			continue
		case sat.False:
			p = p.Not()
		}
		if int(p.Not()) >= len(c.th.occ) {
			continue
		}
		for _, e := range c.th.occ[p.Not()] {
			want := explainByScan(c.th, p, e.id)
			if got := c.th.Explain(p, e.id); !slices.Equal(got, want) {
				c.err = fmt.Errorf("Explain(%v, %d) = %v, the scan gives %v", p, e.id, got, want)
				return nil
			}
			c.compared++
		}
	}
	return nil
}

// TestExplainMatchesScan: on random stores — literals in one constraint
// and in several, either polarity, random weights — searched under
// random clauses and assumptions, Explain's reason for every assigned
// literal under every constraint its negation occurs in is the one the
// scanning loop builds, literal for literal.
func TestExplainMatchesScan(t *testing.T) {
	compared := 0
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, th, lits := setup(24)
		chk := &explainChecker{s: s, th: th}
		s.SetTheory(chk)
		lit := func() sat.Lit { return sat.MkLit(sat.Var(rng.Intn(len(lits))), rng.Intn(2) == 0) }
		for range 30 {
			s.AddClause(lit(), lit(), lit())
		}
		for round := range 8 {
			randomAtMost(t, rng, th, lits)
			var assume []sat.Lit
			for range rng.Intn(5) {
				assume = append(assume, lit())
			}
			st := s.Solve(assume...)
			if chk.err != nil {
				t.Fatalf("seed %d round %d (%v): %v", seed, round, st, chk.err)
			}
		}
		compared += chk.compared
	}
	if compared < 1000 {
		t.Fatalf("only %d reasons compared; the test checks too little", compared)
	}
	t.Logf("%d reasons compared", compared)
}
