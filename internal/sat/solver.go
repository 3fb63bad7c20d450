package sat

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"configsynth/internal/faults"
)

// ErrAddAfterUnsat is returned when clauses are added to a solver that is
// already unsatisfiable at the root level.
var ErrAddAfterUnsat = errors.New("sat: formula is already unsatisfiable")

// Theory is the DPLL(T) hook. A theory receives assignment notifications,
// may imply further literals with explanations, and may report conflicts.
//
// Backtracking reaches a theory in one of two ways, chosen by the
// methods it has besides these:
//
//   - An Unassigner is told of every literal undone, in reverse
//     assignment order, so its Assign and Unassign calls nest properly.
//   - A LevelTheory is told when each decision level opens and, once per
//     backtrack, the level the solver returns to; it restores what it
//     kept for that level instead of undoing literal by literal. Its
//     state must be a function of the trail, so that restoring it is
//     exactly what undoing the literals one at a time would have left.
//
// A theory that is neither keeps no state backtracking would invalidate.
type Theory interface {
	// Assign notifies the theory that l became true.
	Assign(l Lit)
	// Propagate runs theory propagation to fixpoint. The implementation
	// may call s.TheoryEnqueueLazy to imply literals. It returns a non-nil
	// conflict clause (all of whose literals are currently false) if the
	// partial assignment is theory-inconsistent, and nil otherwise. The
	// conflict may alias theory scratch: the solver only reads it until
	// its next Explain or Propagate call on the theory.
	Propagate(s *Solver) []Lit
}

// Unassigner is a Theory told of backtracking one literal at a time.
type Unassigner interface {
	// Unassign notifies the theory that l is being undone.
	Unassign(l Lit)
}

// LevelTheory is a Theory told of backtracking one decision level at a
// time.
type LevelTheory interface {
	// NewLevel notifies the theory that a decision level opens: every
	// literal assigned so far stays below it, and nothing is assigned in
	// it yet. Levels are numbered from 1.
	NewLevel()
	// Backtrack notifies the theory that every literal assigned in a
	// level above level has been undone: its state must become what it
	// was when level+1 opened. Backtrack(0) returns it to the root.
	Backtrack(level int)
}

// LazyExplainer is how a theory explains what it implies in DPLL(T):
// instead of materializing a reason clause for every implied literal up
// front, the theory enqueues with only an integer tag and reconstructs
// the reason on demand — most theory implications never reach conflict
// analysis, so most explanations are never built.
type LazyExplainer interface {
	// Explain rebuilds the reason clause for the implied literal p that
	// was enqueued with the given tag. The result must have p first, and
	// every other literal must be false and assigned strictly before p
	// on the trail (Solver.TrailPos orders assignments), so the clause
	// is exactly what an eager explanation at implication time would
	// have been. The slice may alias theory scratch; it is only read
	// until the next Explain or Propagate call.
	Explain(p Lit, tag int32) []Lit
}

type watcher struct {
	cref    int32 // clause arena reference
	blocker Lit
}

const (
	reasonNone   int32 = -1
	reasonTheory int32 = -2 // theory reason, rebuilt on demand by lazyEx
)

type varOrder struct {
	heap    []Var // binary max-heap on activity
	indices []int32
	act     *[]float64
}

func (o *varOrder) less(a, b Var) bool { return (*o.act)[a] > (*o.act)[b] }

func (o *varOrder) contains(v Var) bool {
	return int(v) < len(o.indices) && o.indices[v] >= 0
}

func (o *varOrder) push(v Var) {
	if o.contains(v) {
		return
	}
	for int(v) >= len(o.indices) {
		o.indices = append(o.indices, -1)
	}
	o.indices[v] = int32(len(o.heap))
	o.heap = append(o.heap, v)
	o.up(len(o.heap) - 1)
}

func (o *varOrder) up(i int) {
	v := o.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !o.less(v, o.heap[p]) {
			break
		}
		o.heap[i] = o.heap[p]
		o.indices[o.heap[p]] = int32(i)
		i = p
	}
	o.heap[i] = v
	o.indices[v] = int32(i)
}

func (o *varOrder) down(i int) {
	v := o.heap[i]
	n := len(o.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && o.less(o.heap[r], o.heap[l]) {
			c = r
		}
		if !o.less(o.heap[c], v) {
			break
		}
		o.heap[i] = o.heap[c]
		o.indices[o.heap[c]] = int32(i)
		i = c
	}
	o.heap[i] = v
	o.indices[v] = int32(i)
}

func (o *varOrder) pop() Var {
	v := o.heap[0]
	last := o.heap[len(o.heap)-1]
	o.heap = o.heap[:len(o.heap)-1]
	o.indices[v] = -1
	if len(o.heap) > 0 {
		o.heap[0] = last
		o.indices[last] = 0
		o.down(0)
	}
	return v
}

func (o *varOrder) update(v Var) {
	if o.contains(v) {
		o.up(int(o.indices[v]))
	}
}

// RestartPolicy selects the restart schedule of a solver.
type RestartPolicy int8

// The available restart schedules.
const (
	// RestartLuby follows the Luby sequence with a 100-conflict unit
	// (the default).
	RestartLuby RestartPolicy = iota
	// RestartGeometric grows the conflict window geometrically (×1.5)
	// from a 100-conflict base.
	RestartGeometric
)

// String names the policy.
func (p RestartPolicy) String() string {
	if p == RestartGeometric {
		return "geometric"
	}
	return "luby"
}

// Config diversifies a solver's search, primarily for portfolio solving
// where several solvers race on the same formula with different
// trajectories. The zero value reproduces the default solver exactly.
// All diversification is deterministic: a fixed Config yields a fixed
// search, bit for bit.
type Config struct {
	// Seed seeds the deterministic PRNG behind random decisions. Zero
	// selects a fixed default seed, so Config{} stays reproducible.
	Seed uint64
	// RandomFreqMilli is the per-mille rate of branching decisions made
	// on a pseudo-randomly chosen variable instead of the activity
	// order. 0 disables random decisions; 20 (2%) is a typical
	// portfolio diversification value.
	RandomFreqMilli int
	// PhaseTrue makes unassigned variables branch true-first instead of
	// the default false-first, until phase saving overrides it.
	PhaseTrue bool
	// Restart selects the restart schedule.
	Restart RestartPolicy
	// ArenaCapWords lowers the clause-arena capacity below the 31-bit
	// architectural limit; an allocation past the cap panics with an
	// error wrapping ErrModelTooLarge instead of wrapping a cref
	// negative. 0 keeps the 31-bit limit. Regression tests use small
	// caps to exercise the overflow path on small instances.
	ArenaCapWords int
}

// Counters are the solver's additive search counters. Each only grows
// while the solver runs, so the counters of several solvers add up and
// the work between two snapshots of one solver is their difference. This
// is the one declaration of them: smt, core's ModelStats, the service's
// /statsz and confsweep -json embed the record rather than copy its
// fields, so a counter added here reaches every report.
type Counters struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	// TheoryProps counts literals a theory implied.
	TheoryProps int64
	Restarts    int64
	// LubyRestarts and GeomRestarts split Restarts by schedule.
	LubyRestarts int64
	GeomRestarts int64
	// RandomDecisions counts decisions taken by the diversification
	// PRNG rather than the activity order.
	RandomDecisions int64
	// Interrupts counts Solve calls abandoned via Interrupt.
	Interrupts int64
	// LearntLitsSum sums the lengths of the learnt clauses.
	LearntLitsSum int64
	// Inprocessing counters: Subsumed clauses removed by forward
	// subsumption, Strengthened literals removed by self-subsuming
	// resolution, Reduced learnt clauses dropped by database reduction,
	// RemovedSat root-satisfied clauses removed by simplification, and
	// ArenaGCs clause-arena compactions.
	Subsumed     int64
	Strengthened int64
	Reduced      int64
	RemovedSat   int64
	ArenaGCs     int64
}

// Add adds b's counters to c.
func (c *Counters) Add(b Counters) { c.add(&b, 1) }

// Sub returns c less b: the work a solver did since snapshot b.
func (c Counters) Sub(b Counters) Counters {
	c.add(&b, -1)
	return c
}

func (c *Counters) add(b *Counters, sign int64) {
	c.Conflicts += sign * b.Conflicts
	c.Decisions += sign * b.Decisions
	c.Propagations += sign * b.Propagations
	c.TheoryProps += sign * b.TheoryProps
	c.Restarts += sign * b.Restarts
	c.LubyRestarts += sign * b.LubyRestarts
	c.GeomRestarts += sign * b.GeomRestarts
	c.RandomDecisions += sign * b.RandomDecisions
	c.Interrupts += sign * b.Interrupts
	c.LearntLitsSum += sign * b.LearntLitsSum
	c.Subsumed += sign * b.Subsumed
	c.Strengthened += sign * b.Strengthened
	c.Reduced += sign * b.Reduced
	c.RemovedSat += sign * b.RemovedSat
	c.ArenaGCs += sign * b.ArenaGCs
}

// Stats is a snapshot of a solver: its shape (variables, problem and
// learnt clauses) and its Counters.
type Stats struct {
	Vars    int
	Clauses int
	Learnts int
	Counters
}

// Solver is an incremental CDCL SAT solver.
//
// The zero value is not usable; construct with New.
type Solver struct {
	arena      []Lit   // flat clause store; see arena.go
	wasted     int     // reclaimable arena words
	arenaCap   int     // Config.ArenaCapWords; 0 = 31-bit limit
	clauseRefs []int32 // live problem clauses
	learntRefs []int32 // live learnt clauses
	watches    [][]watcher
	// Reserve's clause count and the chunk it pays for: an empty watch
	// list takes its first watchSeed slots from watchChunk when a problem
	// clause is attached to it; see seedWatches.
	reservedClauses int
	watchChunk      []watcher
	// watchSlab is the one block a clone's watch lists start out in,
	// kept so that CloneInto can reuse it.
	watchSlab []watcher

	vals     []LBool // per literal: written and cleared for l and l.Not() together
	level    []int32
	trailPos []int32 // trail index at which the variable was assigned
	reason   []int32 // cref, reasonNone, or reasonTheory
	trail    []Lit
	trailLim []int32
	qhead    int

	activity []float64
	varInc   float64
	order    varOrder
	polarity []bool // saved phase: true = last assigned false

	claInc float64

	seen      []byte
	analyzeTs []Lit
	learnt    []Lit   // analyze's learnt clause; attachNew copies it
	lbdStamp  []int64 // per-level stamp for LBD computation
	lbdTick   int64

	theories []Theory
	undoLits []Unassigner    // the theories told of each literal undone
	undoLvls []LevelTheory   // the theories told of each level opened and left
	lazyEx   []LazyExplainer // set exactly where reason is reasonTheory
	lazyTag  []int32

	assumptions []Lit
	conflictSet []Lit // failed assumptions after Unsat

	rootUnsat   bool
	maxLearnts  float64
	budget      int64 // max conflicts; <0 = unlimited
	stats       Counters
	model       []LBool
	lubyRestart int64
	geomBudget  float64

	// Inprocessing state: conflict count at which the next inprocessing
	// pass runs, and the trail length the last root simplification saw.
	nextInprocess     int64
	lastSimplifyTrail int

	cfg         Config
	rng         uint64
	interrupted atomic.Bool
}

// New returns an empty solver with the default configuration.
func New() *Solver { return NewWith(Config{}) }

// NewWith returns an empty solver diversified by cfg.
func NewWith(cfg Config) *Solver {
	s := &Solver{
		varInc:        1,
		claInc:        1,
		budget:        -1,
		nextInprocess: inprocessFirst,
		cfg:           cfg,
		rng:           cfg.Seed,
	}
	if s.rng == 0 {
		s.rng = 0x9E3779B97F4A7C15
	}
	s.arenaCap = cfg.ArenaCapWords
	s.order.act = &s.activity
	return s
}

// Config returns the solver's diversification configuration.
func (s *Solver) Config() Config { return s.cfg }

// Interrupt asks the solver to abandon the current (or next) Solve call
// as soon as possible; the call then returns Unknown. It is safe to call
// from another goroutine while Solve runs. The flag stays set until
// ClearInterrupt, so a late interrupt is not lost between Solve calls;
// racing callers must ClearInterrupt before reusing the solver.
func (s *Solver) Interrupt() { s.interrupted.Store(true) }

// ClearInterrupt re-arms the solver after an Interrupt.
func (s *Solver) ClearInterrupt() { s.interrupted.Store(false) }

// Interrupted reports whether an interrupt is pending.
func (s *Solver) Interrupted() bool { return s.interrupted.Load() }

// nextRand steps the deterministic xorshift64 diversification PRNG.
func (s *Solver) nextRand() uint64 {
	x := s.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng = x
	return x
}

// SetTheory attaches a theory propagator. It backtracks to the root
// level first; a theory attached after clauses were added is
// responsible for folding the current root-level assignment into its
// initial state, since it will not receive Assign calls for literals
// already on the trail. Multiple theories may be attached; they are
// propagated in attachment order.
func (s *Solver) SetTheory(t Theory) {
	s.BacktrackToRoot()
	s.theories = append(s.theories, t)
	switch t := t.(type) {
	case LevelTheory:
		s.undoLvls = append(s.undoLvls, t)
	case Unassigner:
		s.undoLits = append(s.undoLits, t)
	}
}

// SetBudget limits the number of conflicts a Solve call may spend;
// negative means unlimited. When the budget is exhausted Solve returns
// Unknown.
func (s *Solver) SetBudget(conflicts int64) { s.budget = conflicts }

// ResetSearchState forgets the search heuristics — saved phases, VSIDS
// activities and their heap order, restart schedule position, and the
// diversification PRNG — restoring each to its fresh-solver initial
// value while keeping the clause database (including learnt clauses)
// and all counters. Sessions call this between queries: heuristic state
// tuned to the previous query's thresholds can send the next one far
// astray (saved phases replay the old model against a changed bound),
// while the learnt clauses remain sound and are the warm-start payoff.
// It backtracks to the root level first.
func (s *Solver) ResetSearchState() {
	s.BacktrackToRoot()
	s.varInc = 1
	for v := range s.activity {
		s.activity[v] = 0
		s.polarity[v] = !s.cfg.PhaseTrue
	}
	// With all activities equal, a heap holding every variable in index
	// order is exactly the fresh-solver order (NewVar pushes onto an
	// all-zero heap with no swaps). Assigned (root-fixed) variables stay
	// in the heap, as they do on a fresh solver; decide() skips them.
	s.order.heap = s.order.heap[:0]
	for v := range s.NumVars() {
		s.order.heap = append(s.order.heap, Var(v))
		s.order.indices[v] = int32(v)
	}
	s.lubyRestart = 0
	s.geomBudget = 0
	s.rng = s.cfg.Seed
	if s.rng == 0 {
		s.rng = 0x9E3779B97F4A7C15
	}
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.level) }

// Stats returns a snapshot of the solver counters.
func (s *Solver) Stats() Stats {
	return Stats{Vars: s.NumVars(), Clauses: len(s.clauseRefs), Learnts: len(s.learntRefs), Counters: s.stats}
}

// Reserve tells the solver how large the formula about to be added is:
// about vars variables, clauses problem clauses of two or more literals
// and arenaWords clause-arena words (ClauseWords per clause) in total,
// what is already there included. It is only a hint.
// The per-variable arrays, the watch table, the clause list and the
// arena get that capacity at once instead of by doubling, and watch
// lists take their first slots from a chunk sized by the clause count;
// nothing a later NewVar, AddClause or Solve computes depends on it, so
// a wrong hint costs memory or reallocation and never changes the
// state. The trail gets room for every variable, so that a search on
// the encoded solver itself (Reconfigure) does not begin by copying it.
// The arena is never pre-allocated past its cap: a formula that does not
// fit still fails at the allocation that overflows. It backtracks to
// the root level first.
func (s *Solver) Reserve(vars, clauses, arenaWords int) {
	s.BacktrackToRoot()
	s.vals = reserve(s.vals, 2*vars)
	s.trail = reserve(s.trail, vars)
	s.level = reserve(s.level, vars)
	s.trailPos = reserve(s.trailPos, vars)
	s.reason = reserve(s.reason, vars)
	s.activity = reserve(s.activity, vars)
	s.polarity = reserve(s.polarity, vars)
	s.seen = reserve(s.seen, vars)
	s.lazyEx = reserve(s.lazyEx, vars)
	s.lazyTag = reserve(s.lazyTag, vars)
	s.order.heap = reserve(s.order.heap, vars)
	s.order.indices = reserve(s.order.indices, vars)
	s.watches = reserve(s.watches, 2*vars)
	s.clauseRefs = reserve(s.clauseRefs, clauses)
	s.arena = reserve(s.arena, min(arenaWords, s.ArenaLimit()))
	s.reservedClauses = clauses
}

// reserve returns s with capacity for at least total elements.
func reserve[S ~[]E, E any](s S, total int) S {
	if total <= cap(s) {
		return s
	}
	return slices.Grow(s, total-len(s))
}

// NewVar allocates a fresh variable and returns it. It backtracks to
// the root level first.
func (s *Solver) NewVar() Var {
	s.BacktrackToRoot()
	v := Var(s.NumVars())
	s.vals = append(s.vals, Undef, Undef)
	s.level = append(s.level, 0)
	s.trailPos = append(s.trailPos, 0)
	s.reason = append(s.reason, reasonNone)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, !s.cfg.PhaseTrue)
	s.seen = append(s.seen, 0)
	s.lazyEx = append(s.lazyEx, nil)
	s.lazyTag = append(s.lazyTag, 0)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

// Value returns the current assignment of v. Between searches that is
// whatever the last Solve left on the trail (see Solve); a caller that
// wants the root-level assignment calls BacktrackToRoot first.
func (s *Solver) Value(v Var) LBool { return s.vals[PosLit(v)] }

// ValueLit returns the current truth value of l; see Value.
func (s *Solver) ValueLit(l Lit) LBool { return s.vals[l] }

// BacktrackToRoot undoes every assignment above the root level — what
// the last Solve left standing — so that Value and ValueLit read the
// root-level assignment. Every entry that needs the root does it
// itself; a caller reading root values between searches calls it first.
// At the root it is one comparison.
func (s *Solver) BacktrackToRoot() {
	if len(s.trailLim) > 0 {
		s.cancelUntil(0)
	}
}

// ModelValue returns l's value in the model found by the last Sat result.
func (s *Solver) ModelValue(l Lit) LBool {
	b := s.model[l.Var()]
	if l.Neg() {
		return b.Not()
	}
	return b
}

// TrailPos returns the trail position at which v was assigned. Positions
// order assignments: a smaller position was assigned earlier. Only
// meaningful while v is assigned; lazy explainers use it to restrict
// reconstructed reasons to literals assigned before the implied one.
func (s *Solver) TrailPos(v Var) int { return int(s.trailPos[v]) }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause over the given literals, at the root level:
// it backtracks there first. It returns ErrAddAfterUnsat if the formula
// is detected unsatisfiable at the root level. The slice is not
// retained.
func (s *Solver) AddClause(lits ...Lit) error {
	s.BacktrackToRoot()
	if s.rootUnsat {
		return ErrAddAfterUnsat
	}
	// Simplify: drop false/duplicate literals, detect tautologies. The
	// result is built in the analysis scratch, which nothing else uses at
	// the root level, and copied into the arena by allocClause.
	s.analyzeTs = s.analyzeTs[:0]
	for _, l := range lits {
		switch s.ValueLit(l) {
		case True:
			return nil // already satisfied
		case False:
			continue
		}
		dup := false
		for _, o := range s.analyzeTs {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				return nil // tautology
			}
		}
		if !dup {
			s.analyzeTs = append(s.analyzeTs, l)
		}
	}
	out := s.analyzeTs
	switch len(out) {
	case 0:
		s.rootUnsat = true
		return ErrAddAfterUnsat
	case 1:
		if !s.enqueue(out[0], reasonNone) {
			s.rootUnsat = true
			return ErrAddAfterUnsat
		}
		if s.propagate() != nil {
			s.rootUnsat = true
			return ErrAddAfterUnsat
		}
		return nil
	}
	s.attachNew(out, false, 0)
	return nil
}

// attachNew allocates a clause in the arena, registers it in the
// problem or learnt list, and attaches its two watchers.
func (s *Solver) attachNew(lits []Lit, learnt bool, lbd int) int32 {
	cref := s.allocClause(lits, learnt, lbd)
	if learnt {
		s.learntRefs = append(s.learntRefs, cref)
	} else {
		s.clauseRefs = append(s.clauseRefs, cref)
		s.seedWatches(lits[0].Not())
		s.seedWatches(lits[1].Not())
	}
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{cref, lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{cref, lits[0]})
	return cref
}

// watchSeed is the capacity an empty watch list starts with when it is
// seeded from the reserved chunk: what append growth (1, 2, 4, 8) would
// have reached for the short lists most literals of an encoding end up
// with, in one step and without a heap allocation per step.
const watchSeed = 8

// seedWatches gives the still-unallocated watch list of l its first
// watchSeed slots out of the chunk Reserve pays for, so that loading a
// reserved formula does not grow tens of thousands of small lists on
// the heap. Only problem clauses seed: a learnt clause is attached by
// append alone, as it would be without a reservation. The chunk is
// refilled in blocks of two watchers per clause still expected — what
// the rest of the formula attaches — so what is left over when the
// reservation is spent is a fraction of the last, smallest block; a
// solver that was never reserved, or has outgrown its reservation, seeds
// nothing. The list is clipped, so the append that outgrows it moves it
// to the heap like any other, and the order of its watchers is the
// order of the appends either way.
func (s *Solver) seedWatches(l Lit) {
	if cap(s.watches[l]) != 0 {
		return
	}
	if len(s.watchChunk) < watchSeed {
		room := 2 * (s.reservedClauses - len(s.clauseRefs) + 1)
		if room < 2*watchSeed {
			return
		}
		s.watchChunk = make([]watcher, room)
	}
	s.watches[l] = s.watchChunk[:0:watchSeed]
	s.watchChunk = s.watchChunk[watchSeed:]
}

// detachWatches removes the clause's two watcher entries by scanning
// each list once: swap the found entry with the last and stop early.
func (s *Solver) detachWatches(cref int32) {
	lits := s.clsLits(cref)
	for _, w := range [2]Lit{lits[0].Not(), lits[1].Not()} {
		ws := s.watches[w]
		for i := range ws {
			if ws[i].cref == cref {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// removeClause detaches and frees a clause. The clause stays in its
// clause list as a freed hole until the list is next compacted.
func (s *Solver) removeClause(cref int32) {
	s.detachWatches(cref)
	s.freeClause(cref)
}

func (s *Solver) enqueue(p Lit, from int32) bool {
	if b := s.vals[p]; b != Undef {
		return b == True
	}
	v := p.Var()
	s.vals[p] = True
	s.vals[p.Not()] = False
	s.level[v] = int32(s.decisionLevel())
	s.trailPos[v] = int32(len(s.trail))
	s.reason[v] = from
	s.trail = append(s.trail, p)
	for _, t := range s.theories {
		t.Assign(p)
	}
	return true
}

// TheoryEnqueueLazy implies literal p with a deferred explanation: the
// reason clause is only reconstructed — via ex.Explain(p, tag) — if
// conflict analysis actually needs it. This removes the dominant cost of
// eager theory propagation (building and copying reasons for
// implications that never reach a conflict). It returns false if p is
// already false; the caller should then report a conflict with the same
// explanation it would have given here.
func (s *Solver) TheoryEnqueueLazy(p Lit, ex LazyExplainer, tag int32) bool {
	if b := s.vals[p]; b != Undef {
		return b == True
	}
	v := p.Var()
	s.lazyEx[v] = ex
	s.lazyTag[v] = tag
	s.stats.TheoryProps++
	return s.enqueue(p, reasonTheory)
}

// propagate performs Boolean constraint propagation and theory
// propagation to fixpoint. It returns a conflicting clause's literals, or
// nil if no conflict was found.
func (s *Solver) propagate() []Lit {
	for {
		if confl := s.bcp(); confl != nil {
			return confl
		}
		if len(s.theories) == 0 {
			return nil
		}
		before := len(s.trail)
		for _, t := range s.theories {
			if confl := t.Propagate(s); confl != nil {
				return confl
			}
		}
		if len(s.trail) == before {
			return nil
		}
	}
}

func (s *Solver) bcp() []Lit {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		ws := s.watches[p]
		j := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.ValueLit(w.blocker) == True {
				ws[j] = w
				j++
				continue
			}
			lits := s.clsLits(w.cref)
			// Ensure the false literal is lits[1].
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.ValueLit(first) == True {
				ws[j] = watcher{w.cref, first}
				j++
				continue
			}
			// Look for a new watch.
			for k := 2; k < len(lits); k++ {
				if s.ValueLit(lits[k]) != False {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{w.cref, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{w.cref, first}
			j++
			if s.ValueLit(first) == False {
				// Conflict: copy remaining watchers and bail out.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return lits
			}
			s.enqueue(first, w.cref)
		}
		s.watches[p] = ws[:j]
	}
	return nil
}

// newDecisionLevel opens a decision level and tells the level theories.
func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
	for _, t := range s.undoLvls {
		t.NewLevel()
	}
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	lim := int(s.trailLim[lvl])
	for i := len(s.trail) - 1; i >= lim; i-- {
		p := s.trail[i]
		v := p.Var()
		for _, t := range s.undoLits {
			t.Unassign(p)
		}
		s.vals[p] = Undef
		s.vals[p.Not()] = Undef
		s.polarity[v] = p.Neg()
		if s.reason[v] == reasonTheory {
			s.lazyEx[v] = nil
		}
		s.reason[v] = reasonNone
		s.order.push(v)
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
	for _, t := range s.undoLvls {
		t.Backtrack(lvl)
	}
}

func (s *Solver) reasonLits(v Var) []Lit {
	switch s.reason[v] {
	case reasonNone:
		return nil
	case reasonTheory:
		p := PosLit(v)
		if s.vals[p] == False {
			p = p.Not()
		}
		return s.lazyEx[v].Explain(p, s.lazyTag[v])
	default:
		return s.clsLits(s.reason[v])
	}
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(cref int32) {
	act := s.clsAct(cref) + float32(s.claInc)
	s.setClsAct(cref, act)
	if act > 1e20 {
		for _, c := range s.learntRefs {
			if !s.clsFreed(c) {
				s.setClsAct(c, s.clsAct(c)*1e-20)
			}
		}
		s.claInc *= 1e-20
	}
}

// computeLBD returns the literal-block distance of a clause: the number
// of distinct decision levels among its literals. Glue (small-LBD)
// clauses connect few levels and are the learnt clauses worth keeping.
func (s *Solver) computeLBD(lits []Lit) int {
	s.lbdTick++
	n := 0
	for _, q := range lits {
		lvl := s.level[q.Var()]
		for int(lvl) >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, 0)
		}
		if s.lbdStamp[lvl] != s.lbdTick {
			s.lbdStamp[lvl] = s.lbdTick
			n++
		}
	}
	return n
}

// analyze performs first-UIP conflict analysis. It returns the learnt
// clause (asserting literal first) and the backtrack level. The clause
// is the solver's own buffer, valid until the next analyze.
func (s *Solver) analyze(confl []Lit) ([]Lit, int) {
	learnt := append(s.learnt[:0], LitUndef)
	counter := 0
	p := LitUndef
	idx := len(s.trail) - 1
	s.analyzeTs = s.analyzeTs[:0]

	for {
		start := 0
		if p != LitUndef {
			// Reason clauses store the implied literal first (unit
			// propagation and LazyExplainer.Explain maintain this invariant).
			start = 1
		}
		for _, q := range confl[start:] {
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.seen[v] = 1
				s.analyzeTs = append(s.analyzeTs, q)
				s.bumpVar(v)
				if int(s.level[v]) >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Select next literal to expand.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = 0
		counter--
		if counter == 0 {
			break
		}
		confl = s.reasonLits(p.Var())
		if r := s.reason[p.Var()]; r >= 0 && s.clsLearnt(r) {
			s.bumpClause(r)
		}
	}
	learnt[0] = p.Not()

	// Clause minimization: drop literals implied by the rest.
	out := learnt[:1]
	for _, q := range learnt[1:] {
		if !s.redundant(q) {
			out = append(out, q)
		}
	}
	learnt = out

	for _, q := range s.analyzeTs {
		s.seen[q.Var()] = 0
	}

	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	s.stats.LearntLitsSum += int64(len(learnt))
	s.learnt = learnt
	return learnt, btLevel
}

// redundant reports whether literal q in a learnt clause is implied by
// the remaining literals (local, non-recursive check).
func (s *Solver) redundant(q Lit) bool {
	r := s.reasonLits(q.Var())
	if r == nil {
		return false
	}
	for _, x := range r {
		if x.Var() == q.Var() {
			continue
		}
		if s.seen[x.Var()] == 0 && s.level[x.Var()] > 0 {
			return false
		}
	}
	return true
}

// analyzeFinal computes the subset of assumptions responsible for
// assumption a being false under the current trail. The core contains a
// and earlier assumptions, each as passed to Solve.
func (s *Solver) analyzeFinal(a Lit) {
	s.conflictSet = append(s.conflictSet[:0], a)
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[a.Var()] = 1
	for i := len(s.trail) - 1; i >= int(s.trailLim[0]); i-- {
		v := s.trail[i].Var()
		if s.seen[v] == 0 {
			continue
		}
		if r := s.reasonLits(v); r == nil {
			// Decision, i.e. an assumption.
			if v != a.Var() {
				s.conflictSet = append(s.conflictSet, s.trail[i])
			}
		} else {
			for _, q := range r {
				if q.Var() != v && s.level[q.Var()] > 0 {
					s.seen[q.Var()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
	s.seen[a.Var()] = 0
}

// reduceDB halves the learnt-clause database, keeping the clauses most
// likely to prune future search: glue clauses (LBD ≤ 2), binary
// clauses, and reason clauses are protected; the rest are ranked by
// (LBD, activity) and the worse half dropped.
func (s *Solver) reduceDB() {
	type cand struct {
		cref int32
		lbd  int32
		act  float32
	}
	locked := func(cref int32, lits []Lit) bool {
		return s.vals[lits[0]] != Undef && s.reason[lits[0].Var()] == cref
	}
	cands := make([]cand, 0, len(s.learntRefs))
	for _, c := range s.learntRefs {
		if s.clsFreed(c) {
			continue
		}
		lits := s.clsLits(c)
		if lbd := s.clsLBD(c); lbd > 2 && len(lits) > 2 && !locked(c, lits) {
			cands = append(cands, cand{c, int32(lbd), s.clsAct(c)})
		}
	}
	if len(cands) == 0 {
		return
	}
	// Worst first: highest LBD, then lowest activity; cref breaks ties
	// deterministically (older clauses drop first).
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(b.lbd, a.lbd); c != 0 {
			return c
		}
		if c := cmp.Compare(a.act, b.act); c != 0 {
			return c
		}
		return cmp.Compare(a.cref, b.cref)
	})
	drop := cands[:len(cands)/2]
	for _, e := range drop {
		s.removeClause(e.cref)
	}
	s.stats.Reduced += int64(len(drop))
	live := s.learntRefs[:0]
	for _, c := range s.learntRefs {
		if !s.clsFreed(c) {
			live = append(live, c)
		}
	}
	s.learntRefs = live
	s.maybeGC()
}

func luby(y float64, x int64) float64 {
	var size, seq int64 = 1, 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x %= size
	}
	return math.Pow(y, float64(seq))
}

// Solve searches for a model under the given assumptions. It returns Sat,
// Unsat, or Unknown (budget exhausted). After Unsat, UnsatCore returns
// the subset of assumptions responsible. After Sat, ModelValue reads the
// model.
//
// Solve backtracks to the root level when it starts, not when it
// returns: the trail of its search stays standing — a full assignment
// after Sat — until the next entry that needs the root (Solve,
// AddClause, NewVar, Clone, CloneInto, Reconfigure, ResetSearchState,
// SetTheory, Reserve, Digest or BacktrackToRoot) undoes it, exactly as
// a backtrack at the end would have. A solver dropped after its last
// search never pays for it.
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.BacktrackToRoot()
	if faults.Active() {
		// Chaos hooks, inert unless a CONFSYNTH_FAULTS plan is installed:
		// a stretched solve, a spuriously-cancelled solve, or a poisoned
		// solver instance that panics mid-search.
		faults.Delay(faults.SatSolveDelay)
		if faults.Fire(faults.SatSolveInterrupt) {
			s.Interrupt()
		}
		if faults.Fire(faults.SatSolvePanic) {
			panic("sat: injected solver panic (CONFSYNTH_FAULTS " + faults.SatSolvePanic + ")")
		}
	}
	if s.rootUnsat {
		s.conflictSet = s.conflictSet[:0]
		return Unsat
	}
	s.assumptions = append(s.assumptions[:0], assumptions...)
	s.conflictSet = s.conflictSet[:0]
	// Incremental hygiene: root units accumulated since the last Solve
	// (relaxed guards, imported units) let satisfied clauses be removed
	// and false literals stripped before the search pays for them.
	if !s.simplifyRoot() {
		s.rootUnsat = true
		return Unsat
	}
	s.maxLearnts = math.Max(float64(len(s.clauseRefs))*0.4, 5000)
	s.lubyRestart = 0
	s.geomBudget = 100
	conflictsAtStart := s.stats.Conflicts

	for {
		var restartBudget int64
		if s.cfg.Restart == RestartGeometric {
			restartBudget = int64(s.geomBudget)
		} else {
			restartBudget = int64(100 * luby(2, s.lubyRestart))
		}
		// Cap the restart window by the remaining conflict budget so a
		// budgeted Solve cannot overshoot by a whole (geometrically
		// growing) window: the budget is re-checked only at restart
		// boundaries, so the window itself must never exceed what is
		// left to spend.
		if s.budget >= 0 {
			remaining := s.budget - (s.stats.Conflicts - conflictsAtStart)
			if remaining <= 0 {
				return Unknown
			}
			if restartBudget > remaining {
				restartBudget = remaining
			}
		}
		status := s.search(restartBudget)
		if status != Unknown {
			return status
		}
		if s.interrupted.Load() {
			return Unknown
		}
		if s.budget >= 0 && s.stats.Conflicts-conflictsAtStart >= s.budget {
			return Unknown
		}
		if s.cfg.Restart == RestartGeometric {
			if s.geomBudget < 1e12 {
				s.geomBudget *= 1.5
			}
			s.stats.GeomRestarts++
		} else {
			s.lubyRestart++
			s.stats.LubyRestarts++
		}
		s.stats.Restarts++
		s.cancelUntil(0)
		// Inprocessing between restarts: bounded simplification of the
		// clause database while the trail is back at the root.
		if s.stats.Conflicts >= s.nextInprocess {
			s.nextInprocess = s.stats.Conflicts + inprocessPeriod
			if !s.inprocess() {
				s.rootUnsat = true
				return Unsat
			}
		}
	}
}

func (s *Solver) search(maxConflicts int64) Status {
	var conflicts int64
	for {
		// Cooperative cancellation: a portfolio loser must stop promptly,
		// so the flag is polled once per propagate/decide step.
		if s.interrupted.Load() {
			s.stats.Interrupts++
			return Unknown
		}
		confl := s.propagate()
		if confl != nil {
			s.stats.Conflicts++
			conflicts++
			// A theory conflict may mention only literals below the
			// current decision level; back up so that analysis sees at
			// least one literal at the conflicting level.
			maxLvl := 0
			for _, q := range confl {
				if int(s.level[q.Var()]) > maxLvl {
					maxLvl = int(s.level[q.Var()])
				}
			}
			if maxLvl == 0 {
				s.rootUnsat = true
				return Unsat
			}
			s.cancelUntil(maxLvl)
			if s.decisionLevel() == 0 {
				s.rootUnsat = true
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], reasonNone)
			} else {
				lbd := s.computeLBD(learnt)
				cref := s.attachNew(learnt, true, lbd)
				s.enqueue(learnt[0], cref)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if float64(len(s.learntRefs)) > s.maxLearnts {
				s.reduceDB()
				s.maxLearnts *= 1.1
			}
			continue
		}
		if conflicts >= maxConflicts {
			return Unknown
		}
		// Assumptions first.
		next := LitUndef
		for s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.ValueLit(p) {
			case True:
				s.newDecisionLevel()
				continue
			case False:
				s.analyzeFinal(p)
				return Unsat
			default:
				next = p
			}
			break
		}
		if next == LitUndef {
			next = s.pickBranch()
			if next == LitUndef {
				// Full assignment: theory has confirmed consistency
				// via propagate, so this is a model.
				s.model = s.model[:0]
				for v := range s.NumVars() {
					s.model = append(s.model, s.Value(Var(v)))
				}
				return Sat
			}
			s.stats.Decisions++
		}
		s.newDecisionLevel()
		s.enqueue(next, reasonNone)
	}
}

func (s *Solver) pickBranch() Lit {
	// Diversification: occasionally branch on a pseudo-random variable
	// from the order heap instead of the activity maximum. The heap may
	// hold assigned variables; those fall through to the activity order.
	if f := s.cfg.RandomFreqMilli; f > 0 && len(s.order.heap) > 0 &&
		int(s.nextRand()%1000) < f {
		v := s.order.heap[s.nextRand()%uint64(len(s.order.heap))]
		if s.Value(v) == Undef {
			s.stats.RandomDecisions++
			return MkLit(v, s.polarity[v])
		}
	}
	for len(s.order.heap) > 0 {
		v := s.order.pop()
		if s.Value(v) == Undef {
			return MkLit(v, s.polarity[v])
		}
	}
	return LitUndef
}

// VerifyModel re-checks the model of the last Sat result against every
// clause in the store — problem and learnt alike (learnt clauses are
// logical consequences, so a genuine model satisfies them too). It
// returns a descriptive error on the first unsatisfied clause or
// unassigned variable, and nil when the model is sound. It is the CNF
// half of the CONFSYNTH_VERIFY self-check; the PB half lives in
// internal/pb.
func (s *Solver) VerifyModel() error {
	if len(s.model) != s.NumVars() {
		return fmt.Errorf("sat: model covers %d of %d variables", len(s.model), s.NumVars())
	}
	for v, b := range s.model {
		if b == Undef {
			return fmt.Errorf("sat: variable v%d unassigned in model", v)
		}
	}
	for _, refs := range [2][]int32{s.clauseRefs, s.learntRefs} {
		for _, cref := range refs {
			if s.clsFreed(cref) {
				continue
			}
			ok := false
			for _, l := range s.clsLits(cref) {
				if s.ModelValue(l) == True {
					ok = true
					break
				}
			}
			if !ok {
				kind := "clause"
				if s.clsLearnt(cref) {
					kind = "learnt clause"
				}
				return fmt.Errorf("sat: %s %d (%d lits) unsatisfied by model", kind, cref, s.clsSize(cref))
			}
		}
	}
	return nil
}

// UnsatCore returns the subset of the last Solve's assumptions that were
// used to derive unsatisfiability. The literals are returned as passed to
// Solve. The result is only meaningful after Solve returned Unsat; an
// empty core means the formula is unsatisfiable regardless of
// assumptions.
func (s *Solver) UnsatCore() []Lit {
	core := make([]Lit, len(s.conflictSet))
	copy(core, s.conflictSet)
	return core
}
