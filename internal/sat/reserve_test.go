package sat

import (
	"math/rand"
	"reflect"
	"testing"
)

// reserveStream is a clause stream with the shape of an encode: groups of
// fresh variables under a pairwise at-most-one, now and then a unit that
// satisfies some of the clauses before it at the root, implications into
// a few hub variables created on first use (whose watch lists outgrow
// their seed), and longer covering clauses at the end that make Solve
// search.
type reserveStream struct {
	vars    int
	clauses [][]Lit
}

func newReserveStream(seed int64) reserveStream {
	rng := rand.New(rand.NewSource(seed))
	var st reserveStream
	fresh := func() Var { st.vars++; return Var(st.vars - 1) }
	add := func(lits ...Lit) { st.clauses = append(st.clauses, lits) }
	var members []Var
	hubs := make([]Var, 30)
	for i := range hubs {
		hubs[i] = -1
	}
	for g := 0; g < 250; g++ {
		group := make([]Var, 6)
		for i := range group {
			group[i] = fresh()
		}
		members = append(members, group...)
		for i := range group {
			for j := i + 1; j < len(group); j++ {
				add(NegLit(group[i]), NegLit(group[j]))
			}
		}
		if rng.Intn(10) == 0 {
			add(NegLit(group[0]))
		}
		for _, v := range group {
			h := rng.Intn(len(hubs))
			if hubs[h] < 0 {
				hubs[h] = fresh()
			}
			add(NegLit(v), PosLit(hubs[h]))
			if rng.Intn(50) == 0 {
				add(NegLit(v), PosLit(v), PosLit(hubs[h])) // tautology
			}
		}
	}
	for i := 0; i < 300; i++ {
		cl := make([]Lit, 3+rng.Intn(6))
		for j := range cl {
			cl[j] = PosLit(members[rng.Intn(len(members))]) // duplicates happen
		}
		add(cl...)
	}
	return st
}

// load adds the stream to a fresh solver, reserved first if reserve is
// not nil.
func (st reserveStream) load(t *testing.T, reserve func(*Solver)) *Solver {
	t.Helper()
	s := New()
	if reserve != nil {
		reserve(s)
	}
	// Variables arrive interleaved with the clauses over them, as in an
	// encode.
	for _, cl := range st.clauses {
		for _, l := range cl {
			for int(l.Var()) >= s.NumVars() {
				s.NewVar()
			}
		}
		if err := s.AddClause(cl...); err != nil {
			t.Fatalf("stream is unsatisfiable at the root: %v", err)
		}
	}
	for s.NumVars() < st.vars {
		s.NewVar()
	}
	return s
}

// TestReserveIsOnlyAHint loads one clause stream with no reservation, an
// exact one, one far too small and one four times too large, and checks
// that the four solvers hold the same arena, clause list, watcher
// sequence per literal and trail, and report the same statistics after
// Solve: Reserve moves capacity, never state.
func TestReserveIsOnlyAHint(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		st := newReserveStream(seed)
		plain := st.load(t, nil)
		vars, clauses, words := plain.NumVars(), len(plain.clauseRefs), len(plain.arena)
		if clauses < 1000 {
			t.Fatalf("seed %d: stream stored only %d clauses", seed, clauses)
		}
		reserves := []struct {
			name    string
			reserve func(*Solver)
		}{
			{"exact", func(s *Solver) { s.Reserve(vars, clauses, words) }},
			{"too small", func(s *Solver) { s.Reserve(vars/10, clauses/10, words/10) }},
			{"too large", func(s *Solver) { s.Reserve(4*vars, 4*clauses, 4*words) }},
		}
		loaded := make([]*Solver, len(reserves))
		for i, r := range reserves {
			got := st.load(t, r.reserve)
			loaded[i] = got
			if !reflect.DeepEqual(got.arena, plain.arena) {
				t.Errorf("seed %d, %s: arena differs", seed, r.name)
			}
			if !reflect.DeepEqual(got.clauseRefs, plain.clauseRefs) {
				t.Errorf("seed %d, %s: clause list differs", seed, r.name)
			}
			if !reflect.DeepEqual(got.trail, plain.trail) {
				t.Errorf("seed %d, %s: trail differs", seed, r.name)
			}
			if len(got.watches) != len(plain.watches) {
				t.Fatalf("seed %d, %s: %d watch lists, want %d", seed, r.name, len(got.watches), len(plain.watches))
			}
			for l := range got.watches {
				// Lengths first: an empty list may be nil on one side only.
				if len(got.watches[l]) != len(plain.watches[l]) ||
					len(got.watches[l]) > 0 && !reflect.DeepEqual(got.watches[l], plain.watches[l]) {
					t.Errorf("seed %d, %s: watchers of %v differ", seed, r.name, Lit(l))
				}
			}
			checkWatchIntegrity(t, got)
		}

		// The exact reservation is what it says: nothing grew, and the watch
		// lists did come out of the chunk.
		exact, seeded := loaded[0], 0
		if cap(exact.arena) < words || cap(exact.arena) > words+words/8 {
			t.Errorf("seed %d: exact reservation left arena capacity %d for %d words", seed, cap(exact.arena), words)
		}
		for _, ws := range exact.watches {
			if len(ws) > 0 && len(ws) <= watchSeed && cap(ws) == watchSeed {
				seeded++
			}
		}
		if seeded == 0 {
			t.Errorf("seed %d: an exact reservation seeded no watch list from the chunk", seed)
		}

		// A conflict budget keeps a hard stream short; a budgeted search is as
		// deterministic as a finished one.
		plain.SetBudget(2000)
		status, stats := plain.Solve(), plain.Stats()
		if stats.Conflicts == 0 {
			t.Errorf("seed %d: Solve met no conflict; the stream does not exercise search", seed)
		}
		for i, got := range loaded {
			got.SetBudget(2000)
			if st := got.Solve(); st != status {
				t.Errorf("seed %d, %s: Solve = %v, want %v", seed, reserves[i].name, st, status)
			}
			if st := got.Stats(); st != stats {
				t.Errorf("seed %d, %s: statistics after Solve differ:\n got %+v\nwant %+v", seed, reserves[i].name, st, stats)
			}
		}
	}
}
