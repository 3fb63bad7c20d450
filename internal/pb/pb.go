// Package pb implements a pseudo-Boolean linear-arithmetic theory for the
// CDCL solver in internal/sat, in the DPLL(T) style.
//
// A constraint has the form
//
//	w1*l1 + w2*l2 + ... + wn*ln <= bound
//
// where each li is a literal contributing wi (> 0) when true. This is
// exactly the fragment of quantifier-free linear integer arithmetic that
// the ConfigSynth model needs: all isolation, usability, and cost sums
// range over 0/1 decision variables with integer weights.
//
// The theory uses counter propagation: it maintains the sum of weights of
// currently-true literals per constraint, detects violations in O(1), and
// propagates ¬l for any unassigned literal whose weight exceeds the
// remaining slack. Three hot-path refinements keep large stores cheap:
//
//   - Watermark gating: a constraint is only queued for Propagate when
//     its sum exceeds watermark = bound − maxWeight. Below the
//     watermark, neither a conflict (needs sum > bound ≥ watermark) nor
//     a propagation (needs maxWeight > slack, i.e. sum > watermark) is
//     possible, so Propagate would visit it and do nothing — the queue
//     push in Assign is skipped instead, and most assignments touch
//     nothing but the counters.
//
//   - Level-scoped restore: the sums are a function of the trail, so the
//     store is a sat.LevelTheory. It saves the K sums when a decision
//     level opens and copies them back when the solver backtracks below
//     it, instead of subtracting every undone literal's weights: K words
//     per level, against a walk of every undone literal's occurrences.
//
//   - Lazy explanations: implied literals are enqueued through
//     sat.TheoryEnqueueLazy with the constraint id as the tag, and the
//     reason clause is only reconstructed if conflict analysis asks for
//     it. Restricting the reconstruction to literals assigned strictly
//     before the implied one (sat.Solver.TrailPos) makes it bit-identical
//     to the reason an eager call would have built at implication time.
//
// Explanations are the set of currently-true literals of the constraint,
// greedily preferring heavy literals, which is a correct (if not minimal)
// reason clause.
package pb

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"slices"

	"configsynth/internal/sat"
)

// ErrBadConstraint reports a malformed constraint (non-positive weight,
// mismatched slice lengths, or duplicate variables).
var ErrBadConstraint = errors.New("pb: malformed constraint")

// term is one weighted literal of a constraint. Terms are stored in one
// flat slice per constraint (sorted by descending weight), so the
// propagation and explanation scans walk contiguous memory.
type term struct {
	lit    sat.Lit
	weight int64
}

// constraint is fixed once added, so clones of a store share it; the
// running sum is Theory.sums[id].
type constraint struct {
	terms     []term // sorted by descending weight
	bound     int64
	watermark int64 // bound − max weight; only sums above it can act
}

type occEntry struct {
	id     int32
	weight int64
}

// Theory is a pseudo-Boolean constraint store attached to a sat.Solver.
// It implements sat.Theory, sat.LevelTheory and sat.LazyExplainer.
type Theory struct {
	solver      *sat.Solver
	constraints []*constraint
	sums        []int64      // per constraint: total weight of currently-true literals
	saved       []int64      // sums as each open decision level found them, K per level
	occ         [][]occEntry // lit -> constraints where lit contributes
	touched     []int32
	onQueue     []bool
	rootViol    bool

	// scratch buffers
	expl  []sat.Lit
	stamp []uint32 // per variable: tick of the last AddAtMost that saw it
	tick  uint32
}

var (
	_ sat.Theory        = (*Theory)(nil)
	_ sat.LevelTheory   = (*Theory)(nil)
	_ sat.LazyExplainer = (*Theory)(nil)
)

// New creates a theory bound to s and registers it with the solver.
func New(s *sat.Solver) *Theory {
	t := &Theory{solver: s}
	s.SetTheory(t)
	return t
}

// Clone returns a copy of the store bound to s, which must be a clone of
// the solver t is attached to (sat.Solver.Clone), and registers it with
// s. The sums, the queue and the occurrence table are copied; the
// constraints and the occurrence lists are shared, each list clipped so
// that an append reallocates, since nothing writes to them once added.
func (t *Theory) Clone(s *sat.Solver) *Theory { return t.CloneInto(nil, s) }

// cloneVarRoom is the per-variable room a clone's tables start with, as
// sat.Solver.Clone gives its own: the guards a clone adds next then do
// not copy the occurrence table again.
const cloneVarRoom = 64

// CloneInto is Clone built in the memory of spare, a store the caller is
// done with (sat.Solver.CloneInto): only the capacity of its buffers is
// read, and the result is state for state what Clone returns. spare
// must not be used afterwards; nil is Clone. t's solver is backtracked
// to the root first, so the sums copied are the root's.
func (t *Theory) CloneInto(spare *Theory, s *sat.Solver) *Theory {
	t.solver.BacktrackToRoot()
	if spare == nil {
		spare = &Theory{}
	}
	room := len(t.occ) + 2*cloneVarRoom
	c := &Theory{
		solver:      s,
		constraints: append(recycled(spare.constraints, len(t.constraints)), t.constraints...),
		sums:        append(recycled(spare.sums, len(t.sums)), t.sums...),
		saved:       spare.saved[:0],
		occ:         recycled(spare.occ, room)[:len(t.occ)],
		touched:     append(recycled(spare.touched, len(t.touched)), t.touched...),
		onQueue:     append(recycled(spare.onQueue, len(t.onQueue)), t.onQueue...),
		rootViol:    t.rootViol,
		expl:        spare.expl[:0],
		stamp:       spare.stamp[:0],
	}
	for l, es := range t.occ {
		c.occ[l] = es[:len(es):len(es)]
	}
	clear(c.occ[len(t.occ):cap(c.occ)]) // let go of the spare's lists
	s.SetTheory(c)
	return c
}

// recycled returns buf emptied when it can hold n elements, and a new
// slice of capacity n otherwise.
func recycled[S ~[]E, E any](buf S, n int) S {
	if cap(buf) >= n {
		return buf[:0]
	}
	return make(S, 0, n)
}

// Digest writes the store to h: every constraint in id order with its
// bound, a zero word (where a deactivated flag used to be, so recorded
// digests stand), and its terms in stored order. Like sat.Solver.Digest
// it is a debugging aid for tests that pin an encoding.
func (t *Theory) Digest(h hash.Hash) {
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(int64(len(t.constraints)))
	for _, c := range t.constraints {
		put(c.bound)
		put(0)
		put(int64(len(c.terms)))
		for _, tm := range c.terms {
			put(int64(tm.lit))
			put(tm.weight)
		}
	}
}

// NumConstraints returns the number of constraints added so far.
func (t *Theory) NumConstraints() int { return len(t.constraints) }

// RootViolated reports whether some constraint is already violated by the
// root-level (level 0) assignment at the time it was added. Such a store
// is unsatisfiable.
func (t *Theory) RootViolated() bool { return t.rootViol }

// AddAtMost adds the constraint sum(weights[i]*lits[i]) <= bound. Literals
// must be over distinct variables and weights must be positive. Literals
// whose weight exceeds the remaining root-level slack are immediately
// forced false through the solver, so the root assignment reflects them
// before the next Solve.
//
// A constraint is added at the root level: the solver backtracks there
// first (sat.Solver.BacktrackToRoot), so literals already true count
// only if they are true at the root.
//
// Terms are stored in stable descending-weight order (the order decides
// propagation and explanation order). Input that already arrives in
// non-increasing weight order — smt.Sum hands its cached order over —
// is stored as is; a stable sort would not move anything.
func (t *Theory) AddAtMost(lits []sat.Lit, weights []int64, bound int64) error {
	t.solver.BacktrackToRoot()
	if len(lits) != len(weights) {
		return fmt.Errorf("%w: %d literals vs %d weights", ErrBadConstraint, len(lits), len(weights))
	}
	// Duplicate check by stamping: a variable seen twice in this call
	// carries this call's tick already.
	if n := t.solver.NumVars(); len(t.stamp) < n {
		t.stamp = append(t.stamp, make([]uint32, n-len(t.stamp))...)
	}
	t.tick++
	sorted := true
	for i, w := range weights {
		if w <= 0 {
			return fmt.Errorf("%w: weight %d at index %d", ErrBadConstraint, w, i)
		}
		v := lits[i].Var()
		if t.stamp[v] == t.tick {
			return fmt.Errorf("%w: duplicate variable v%d", ErrBadConstraint, v)
		}
		t.stamp[v] = t.tick
		if i > 0 && w > weights[i-1] {
			sorted = false
		}
	}
	if bound < 0 {
		t.rootViol = true
		return nil
	}
	c := &constraint{
		terms: make([]term, len(lits)),
		bound: bound,
	}
	for i, l := range lits {
		c.terms[i] = term{lit: l, weight: weights[i]}
	}
	if !sorted {
		slices.SortStableFunc(c.terms, func(a, b term) int { return cmp.Compare(b.weight, a.weight) })
	}
	c.watermark = bound
	if len(c.terms) > 0 {
		c.watermark = bound - c.terms[0].weight
	}
	id := int32(len(t.constraints))
	t.constraints = append(t.constraints, c)
	t.onQueue = append(t.onQueue, false)
	var sum int64

	if n := 2 * t.solver.NumVars(); len(t.occ) < n {
		t.occ = append(t.occ, make([][]occEntry, n-len(t.occ))...)
	}
	// A literal's first occurrence entry comes out of one slab per
	// constraint (clipped, so a second entry reallocates) instead of its
	// own allocation: most literals sit in exactly one constraint.
	slab := make([]occEntry, len(c.terms))
	for i, tm := range c.terms {
		e := occEntry{id: id, weight: tm.weight}
		if cap(t.occ[tm.lit]) == 0 {
			slab[i] = e
			t.occ[tm.lit] = slab[i : i+1 : i+1]
		} else {
			t.occ[tm.lit] = append(t.occ[tm.lit], e)
		}
		// Account for literals already true at the root level.
		if t.solver.ValueLit(tm.lit) == sat.True {
			sum += tm.weight
		}
	}
	t.sums = append(t.sums, sum)
	if sum > c.bound {
		t.rootViol = true
		return nil
	}
	// Root-level forcing: a literal still unassigned whose weight exceeds
	// the remaining root slack can never become true. Forcing it false
	// through the solver now — rather than waiting for the next Solve's
	// Propagate — keeps the solver's root assignment in sync with the
	// store, so that later AddClause root simplification sees the implied
	// units. The unit may cascade through clause and theory propagation;
	// a root conflict surfacing from the cascade marks the store violated.
	for _, tm := range c.terms {
		if tm.weight <= c.bound-t.sums[id] || t.solver.ValueLit(tm.lit) != sat.Undef {
			continue
		}
		if err := t.solver.AddClause(tm.lit.Not()); err != nil {
			t.rootViol = true
			return nil
		}
	}
	return nil
}

func (t *Theory) push(id int32) {
	if !t.onQueue[id] {
		t.onQueue[id] = true
		t.touched = append(t.touched, id)
	}
}

// Assign implements sat.Theory. Besides maintaining the true-weight
// counters, it queues a constraint for Propagate only once its sum rises
// above the watermark — the exact point below which Propagate can
// neither conflict nor imply anything.
func (t *Theory) Assign(l sat.Lit) {
	if int(l) >= len(t.occ) {
		return
	}
	for _, e := range t.occ[l] {
		t.sums[e.id] += e.weight
		if t.sums[e.id] > t.constraints[e.id].watermark {
			t.push(e.id)
		}
	}
}

// NewLevel implements sat.LevelTheory: it saves the sums.
func (t *Theory) NewLevel() { t.saved = append(t.saved, t.sums...) }

// Backtrack implements sat.LevelTheory: it restores the sums level+1
// found when it opened. Constraints are only added at the root, so
// every saved level holds one sum per constraint. The propagation queue
// is left as it is, as it was when each undone literal was subtracted.
func (t *Theory) Backtrack(level int) {
	at := level * len(t.sums)
	copy(t.sums, t.saved[at:])
	t.saved = t.saved[:at]
}

// VerifyModel checks every constraint against a complete assignment,
// where val reports whether a literal is true. It returns a descriptive
// error for the first violated bound, and nil when the assignment
// satisfies the whole store.
func (t *Theory) VerifyModel(val func(sat.Lit) bool) error {
	for id, c := range t.constraints {
		var sum int64
		for _, tm := range c.terms {
			if val(tm.lit) {
				sum += tm.weight
			}
		}
		if sum > c.bound {
			return fmt.Errorf("pb: constraint %d violated by model: sum %d > bound %d over %d terms",
				id, sum, c.bound, len(c.terms))
		}
	}
	return nil
}

// explain builds a reason clause for constraint c: head (the implied
// literal, or LitUndef for a conflict) followed by negations of
// currently-true literals of c whose weights alone already exceed
// target. Greedily taking heavy literals first keeps explanations short,
// which keeps learnt clauses sharp. The result aliases t.expl and is
// only valid until the next call.
func (t *Theory) explain(c *constraint, head sat.Lit, target int64) []sat.Lit {
	t.expl = t.expl[:0]
	if head != sat.LitUndef {
		t.expl = append(t.expl, head)
	}
	var acc int64
	for _, tm := range c.terms {
		if acc > target {
			break
		}
		if tm.lit.Var() != head.Var() && t.solver.ValueLit(tm.lit) == sat.True {
			t.expl = append(t.expl, tm.lit.Not())
			acc += tm.weight
		}
	}
	return t.expl
}

// Explain implements sat.LazyExplainer: it reconstructs, on demand, the
// reason for implied literal p = ¬l enqueued by constraint tag. Only
// literals assigned strictly before p (smaller trail position) may
// enter, which restricts the scan to exactly the literals that were true
// at implication time — the reconstruction is therefore bit-identical to
// the clause an eager explanation would have produced, including order,
// so conflict analysis (and with it search, models, and cores) is
// unaffected by the laziness.
//
// The weight of the literal forced false comes from its occurrence
// entry for this constraint: most literals occur in one constraint, so
// that is one entry to read, where the constraint's terms are many.
func (t *Theory) Explain(p sat.Lit, tag int32) []sat.Lit {
	c := t.constraints[tag]
	var target int64
	for _, e := range t.occ[p.Not()] {
		if e.id == tag {
			target = c.bound - e.weight
			break
		}
	}
	s := t.solver
	pos := s.TrailPos(p.Var())
	t.expl = append(t.expl[:0], p)
	var acc int64
	for _, tm := range c.terms {
		if acc > target {
			break
		}
		if tm.lit.Var() != p.Var() && s.ValueLit(tm.lit) == sat.True &&
			s.TrailPos(tm.lit.Var()) < pos {
			t.expl = append(t.expl, tm.lit.Not())
			acc += tm.weight
		}
	}
	return t.expl
}

// Propagate implements sat.Theory. It processes all constraints whose sum
// rose above their watermark since the last call, reporting a conflict
// clause or implying literals via s.TheoryEnqueueLazy. A conflict aliases
// t.expl, as sat.Theory allows.
func (t *Theory) Propagate(s *sat.Solver) []sat.Lit {
	for len(t.touched) > 0 {
		id := t.touched[len(t.touched)-1]
		t.touched = t.touched[:len(t.touched)-1]
		t.onQueue[id] = false
		c := t.constraints[id]
		if t.sums[id] > c.bound {
			return t.explain(c, sat.LitUndef, c.bound)
		}
		// Weights are sorted descending: once w <= slack no further
		// literal can propagate.
		slack := c.bound - t.sums[id]
		if len(c.terms) == 0 || c.terms[0].weight <= slack {
			continue
		}
		for _, tm := range c.terms {
			if tm.weight <= slack {
				break
			}
			if s.ValueLit(tm.lit) != sat.Undef {
				continue
			}
			if !s.TheoryEnqueueLazy(tm.lit.Not(), t, id) {
				// tm.lit is already true: the eager reason clause is
				// fully false, i.e., a conflict.
				return t.explain(c, tm.lit.Not(), c.bound-tm.weight)
			}
		}
	}
	return nil
}
