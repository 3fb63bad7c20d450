package sat

import (
	"cmp"
	"slices"
)

// Inprocessing: bounded simplification of the clause database between
// restarts, while the trail is back at the root level. Two passes run:
//
//   - simplifyRoot removes clauses satisfied by root-level units and
//     strips root-false literals, so incremental solves (relaxed guards,
//     imported units) stop paying for dead structure.
//   - subsumptionPass performs forward subsumption (drop any clause that
//     is a superset of another) and self-subsuming resolution (remove a
//     literal whose resolvent with a smaller clause is a strict subset),
//     under a literal-visit budget so the worst case stays bounded.
//
// Both passes are deterministic: candidates are ordered by (size, cref)
// and the budget counts deterministic work units, so a fixed formula
// always simplifies the same way.
const (
	// inprocessFirst and inprocessPeriod schedule inprocessing by
	// cumulative conflict count: first pass after inprocessFirst
	// conflicts, then every inprocessPeriod.
	inprocessFirst  = 4000
	inprocessPeriod = 8000

	// subsumeBudget bounds literal visits per subsumption pass, and
	// subsumeMaxClause bounds the size of a subsuming clause (large
	// clauses almost never subsume anything; skipping them keeps the
	// occurrence scans short).
	subsumeBudget    = 400000
	subsumeMaxClause = 20
)

// inprocess runs the between-restart simplification stack. It must be
// called at decision level 0; it reports false if the formula is
// discovered unsatisfiable.
func (s *Solver) inprocess() bool {
	if !s.simplifyRoot() {
		return false
	}
	if !s.subsumptionPass() {
		return false
	}
	// Strengthening may have enqueued fresh root units; fold them in so
	// the clause store is clean before the next search round.
	if !s.simplifyRoot() {
		return false
	}
	return true
}

// simplifyRoot propagates pending root units, then removes satisfied
// clauses and strips false literals from the rest. Reasons of root
// literals are cleared first (conflict analysis never consults reasons
// below level 1), so removing a satisfied reason clause is safe. Must be
// called at decision level 0; reports false on a root conflict.
func (s *Solver) simplifyRoot() bool {
	if s.propagate() != nil {
		return false
	}
	if len(s.trail) == s.lastSimplifyTrail {
		return true
	}
	for _, p := range s.trail {
		v := p.Var()
		if s.reason[v] == reasonTheory {
			s.lazyEx[v] = nil
		}
		s.reason[v] = reasonNone
	}
	for _, refs := range [2]*[]int32{&s.clauseRefs, &s.learntRefs} {
		live := (*refs)[:0]
		for _, cref := range *refs {
			if s.clsFreed(cref) {
				continue
			}
			lits := s.clsLits(cref)
			sat := false
			for _, l := range lits {
				if s.ValueLit(l) == True {
					sat = true
					break
				}
			}
			if sat {
				s.removeClause(cref)
				s.stats.RemovedSat++
				continue
			}
			// At root fixpoint the two watched literals of an
			// unsatisfied clause cannot be false (a false watch would
			// have propagated or satisfied the clause), so only the
			// tail needs stripping and the watchers stay valid.
			for k := len(lits) - 1; k >= 2; k-- {
				if s.ValueLit(lits[k]) == False {
					s.shrinkClause(cref, k)
				}
			}
			live = append(live, cref)
		}
		*refs = live
	}
	s.lastSimplifyTrail = len(s.trail)
	s.maybeGC()
	return true
}

// subsumptionPass runs forward subsumption and self-subsuming resolution
// over the live clause store. For each candidate clause C (smallest
// first), clauses sharing C's rarest variable are checked: a superset of
// C is removed; a superset-up-to-one-negation is strengthened by
// resolving away the flipped literal. When a learnt clause subsumes a
// problem clause, the learnt subsumer is promoted to problem status
// first — deleting the original is only sound if its subsumer can never
// itself be deleted by database reduction. Reports false if a
// strengthening cascade yields a root conflict.
func (s *Solver) subsumptionPass() bool {
	cands := make([]int32, 0, len(s.clauseRefs)+len(s.learntRefs))
	for _, refs := range [2][]int32{s.clauseRefs, s.learntRefs} {
		for _, cref := range refs {
			if !s.clsFreed(cref) {
				cands = append(cands, cref)
			}
		}
	}
	slices.SortFunc(cands, func(a, b int32) int {
		if c := cmp.Compare(s.clsSize(a), s.clsSize(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	// Occurrence lists and variable signatures, both keyed by candidate
	// index. occ is keyed by variable (not literal) so one scan serves
	// both subsumption and self-subsuming resolution; it is one flat
	// slice, where occ[at[v]:at[v+1]] lists the candidates containing v
	// in candidate order. sig[i] is candidate i's 64-bit variable bloom
	// for the cheap superset pre-check. None of it outlives the pass:
	// kept on the solver, the tables would be a second copy of the
	// clause store's variables in every live solver, for a pass that
	// runs once per inprocessPeriod conflicts.
	nv := s.NumVars()
	at := make([]int32, nv+2)
	sig := make([]uint64, len(cands))
	for i, cref := range cands {
		var g uint64
		for _, l := range s.clsLits(cref) {
			at[l.Var()+2]++
			g |= 1 << (uint(l.Var()) % 64)
		}
		sig[i] = g
	}
	// Counting sort: after the prefix sum at[v+1] is where v's list
	// starts, and filling advances it to where the list ends, which is
	// where v+1's list starts.
	for v := 2; v < len(at); v++ {
		at[v] += at[v-1]
	}
	occ := make([]int32, at[nv+1])
	for i, cref := range cands {
		for _, l := range s.clsLits(cref) {
			occ[at[l.Var()+1]] = int32(i)
			at[l.Var()+1]++
		}
	}
	occOf := func(v Var) []int32 { return occ[at[v]:at[v+1]] }

	budget := subsumeBudget
	unitsAdded := false
	for ci, c := range cands {
		if budget <= 0 {
			break
		}
		if s.clsFreed(c) {
			continue
		}
		clits := s.clsLits(c)
		if len(clits) > subsumeMaxClause {
			// cands is size-sorted: everything from here on is larger.
			break
		}
		// Scan the occurrence list of C's rarest variable.
		minV := clits[0].Var()
		for _, l := range clits[1:] {
			if len(occOf(l.Var())) < len(occOf(minV)) {
				minV = l.Var()
			}
		}
		cs := len(clits)
		csig := sig[ci]
		for _, di := range occOf(minV) {
			if budget <= 0 {
				break
			}
			d := cands[di]
			if di == int32(ci) || s.clsFreed(d) {
				continue
			}
			dlits := s.clsLits(d)
			if len(dlits) < cs || csig&^sig[di] != 0 {
				continue
			}
			budget -= len(dlits)
			// Subset check with one-flip detection: flipped is the
			// index in D of the single negated match, or -1.
			flipped := -1
			ok := true
			for _, cl := range clits {
				found := false
				for k, dl := range dlits {
					if dl == cl {
						found = true
						break
					}
					if dl == cl.Not() {
						if flipped >= 0 {
							break // two flips: not a resolvent subset
						}
						flipped = k
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if flipped < 0 {
				// C ⊆ D: D is redundant.
				if !s.clsLearnt(d) && s.clsLearnt(c) {
					s.demoteToProblem(c)
				}
				s.removeClause(d)
				s.stats.Subsumed++
				continue
			}
			// Self-subsuming resolution: resolving C and D on the
			// flipped variable yields D minus its flipped literal.
			if s.strengthen(d, flipped) {
				unitsAdded = true
			}
			s.stats.Strengthened++
			// D changed (or died); re-read nothing — the next d in the
			// occurrence list is checked against the arena fresh.
		}
	}

	// Rebuild the clause lists: drop freed holes and re-home clauses
	// whose learnt bit changed (promotion keeps a subsumer permanent).
	probs, learnts := s.clauseRefs[:0], s.learntRefs[:0]
	for _, refs := range [2][]int32{s.clauseRefs, s.learntRefs} {
		for _, cref := range refs {
			if s.clsFreed(cref) {
				continue
			}
			if s.clsLearnt(cref) {
				learnts = append(learnts, cref)
			} else {
				probs = append(probs, cref)
			}
		}
	}
	// (The compacted slices alias the originals' backing arrays; each
	// in-place append stays at or behind the read position, and the
	// learnt bit is only ever cleared, so clauseRefs entries never move
	// to learnts mid-iteration.)
	s.clauseRefs, s.learntRefs = probs, learnts
	s.maybeGC()

	if s.rootUnsat {
		return false
	}
	if unitsAdded {
		if s.propagate() != nil {
			return false
		}
	}
	return true
}

// strengthen removes the literal at index i from clause d (self-subsuming
// resolution). The clause is re-watched on its first two remaining
// literals; a clause strengthened to a unit is asserted at the root and
// freed. Reports whether a root unit was enqueued (the caller must
// propagate before relying on the watch invariant).
func (s *Solver) strengthen(d int32, i int) bool {
	s.detachWatches(d)
	s.shrinkClause(d, i)
	lits := s.clsLits(d)
	if len(lits) == 1 {
		u := lits[0]
		s.freeClause(d)
		// A false unit here means the strengthening cascade refuted the
		// formula; leave the conflict for the caller's propagate (the
		// enqueue below fails and rootUnsat is detected there via the
		// already-false literal remaining unenqueued — mark directly).
		if !s.enqueue(u, reasonNone) {
			s.rootUnsat = true
		}
		return true
	}
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{d, lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{d, lits[0]})
	return false
}
