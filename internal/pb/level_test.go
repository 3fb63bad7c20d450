package pb

import (
	"fmt"
	"math/rand"
	"testing"

	"configsynth/internal/sat"
)

// recount checks every constraint's sum against the weights of its
// literals that holds reports true.
func recount(th *Theory, holds func(sat.Lit) bool) error {
	for id, c := range th.constraints {
		var want int64
		for _, tm := range c.terms {
			if holds(tm.lit) {
				want += tm.weight
			}
		}
		if th.sums[id] != want {
			return fmt.Errorf("constraint %d: sum %d, recount %d", id, th.sums[id], want)
		}
	}
	return nil
}

// randomAtMost adds a random constraint over distinct variables.
func randomAtMost(t *testing.T, rng *rand.Rand, th *Theory, lits []sat.Lit) {
	t.Helper()
	perm := rng.Perm(len(lits))[:2+rng.Intn(6)]
	ls := make([]sat.Lit, len(perm))
	ws := make([]int64, len(perm))
	var total int64
	for i, v := range perm {
		ls[i] = lits[v]
		if rng.Intn(2) == 0 {
			ls[i] = ls[i].Not()
		}
		ws[i] = int64(1 + rng.Intn(5))
		total += ws[i]
	}
	if err := th.AddAtMost(ls, ws, total/2+int64(rng.Intn(3))); err != nil {
		t.Fatal(err)
	}
}

// TestLevelRestoreMatchesRecount drives the store through random
// sequences of assignments, decision levels opened, backtracks to any
// open level (the root included) and constraints added at the root:
// after every step each constraint's sum must equal a recount from the
// trail. Root assignments go through the solver as units; assignments
// above the root are made on the store directly and kept on a shadow
// trail, level by level.
func TestLevelRestoreMatchesRecount(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, th, lits := setup(30)
		for range 3 {
			randomAtMost(t, rng, th, lits)
		}
		shadow := [][]sat.Lit{nil} // shadow[k]: literals assigned at level k > 0
		onShadow := map[sat.Var]sat.Lit{}
		isTrue := func(l sat.Lit) bool {
			if s.ValueLit(l) == sat.True {
				return true
			}
			m, ok := onShadow[l.Var()]
			return ok && m == l
		}
		for step := range 400 {
			level := len(shadow) - 1
			var did string
			switch r := rng.Intn(10); {
			case r < 5: // assign an unassigned literal
				l := lits[rng.Intn(len(lits))]
				if rng.Intn(2) == 0 {
					l = l.Not()
				}
				if _, ok := onShadow[l.Var()]; ok || s.ValueLit(l) != sat.Undef {
					continue
				}
				if level == 0 {
					did = fmt.Sprintf("root unit %v", l)
					s.AddClause(l)
				} else {
					did = fmt.Sprintf("assign %v at level %d", l, level)
					th.Assign(l)
					shadow[level] = append(shadow[level], l)
					onShadow[l.Var()] = l
				}
			case r < 7:
				did = fmt.Sprintf("open level %d", level+1)
				th.NewLevel()
				shadow = append(shadow, nil)
			case r < 9:
				if level == 0 {
					continue
				}
				to := rng.Intn(level)
				if rng.Intn(4) == 0 {
					to = 0
				}
				did = fmt.Sprintf("backtrack %d -> %d", level, to)
				th.Backtrack(to)
				for _, ls := range shadow[to+1:] {
					for _, l := range ls {
						delete(onShadow, l.Var())
					}
				}
				shadow = shadow[:to+1]
			default:
				if level != 0 {
					continue
				}
				did = "add a constraint at the root"
				randomAtMost(t, rng, th, lits)
			}
			if err := recount(th, isTrue); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, did, err)
			}
		}
	}
}

// recountChecker is a theory attached behind a store, which recounts the
// store's sums from the solver's trail at every event it is told of:
// each assignment, each propagation round, each level opened and each
// backtrack.
type recountChecker struct {
	s                  *sat.Solver
	th                 *Theory
	levels, backtracks int
	err                error
}

func (c *recountChecker) check(event string) {
	if c.err != nil {
		return
	}
	if err := recount(c.th, func(l sat.Lit) bool { return c.s.ValueLit(l) == sat.True }); err != nil {
		c.err = fmt.Errorf("after %s: %w", event, err)
	}
}

func (c *recountChecker) Assign(l sat.Lit) { c.check("assign " + l.String()) }
func (c *recountChecker) NewLevel()        { c.levels++; c.check("a level opened") }
func (c *recountChecker) Backtrack(level int) {
	c.backtracks++
	c.check(fmt.Sprintf("backtrack to %d", level))
}
func (c *recountChecker) Propagate(s *sat.Solver) []sat.Lit { c.check("propagation"); return nil }

// TestLevelRestoreUnderSearch: the same recount holds at every event of
// real searches — random clauses and constraints, solved under random
// assumptions, with constraints and clauses added at the root between
// solves while the last search's trail still stands.
func TestLevelRestoreUnderSearch(t *testing.T) {
	var levels, backtracks int
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, th, lits := setup(24)
		chk := &recountChecker{s: s, th: th}
		s.SetTheory(chk)
		lit := func() sat.Lit { return sat.MkLit(sat.Var(rng.Intn(len(lits))), rng.Intn(2) == 0) }
		for range 40 {
			s.AddClause(lit(), lit(), lit())
		}
		for round := range 12 {
			randomAtMost(t, rng, th, lits)
			if rng.Intn(2) == 0 {
				s.AddClause(lit(), lit())
			}
			var assume []sat.Lit
			for range rng.Intn(5) {
				assume = append(assume, lit())
			}
			st := s.Solve(assume...)
			if chk.err != nil {
				t.Fatalf("seed %d round %d (%v): %v", seed, round, st, chk.err)
			}
		}
		s.BacktrackToRoot()
		if chk.err != nil {
			t.Fatalf("seed %d, final backtrack: %v", seed, chk.err)
		}
		levels, backtracks = levels+chk.levels, backtracks+chk.backtracks
	}
	if levels < 100 || backtracks < 100 {
		t.Fatalf("the searches opened %d levels and backtracked %d times; the test checks too little", levels, backtracks)
	}
	t.Logf("%d levels opened, %d backtracks", levels, backtracks)
}
