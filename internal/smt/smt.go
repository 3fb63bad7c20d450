// Package smt provides a small Z3-like solver façade over the CDCL SAT
// core (internal/sat) and the pseudo-Boolean theory (internal/pb).
//
// It supports Boolean terms, clauses, cardinality helpers, linear
// pseudo-Boolean constraints (optionally guarded by an indicator
// literal), incremental checking under assumptions, model extraction
// and unsat cores — everything the ConfigSynth synthesis model in
// internal/core needs from an SMT solver. Optimisation is not here: a
// caller descends over guarded bounds (core.Query.Bisect).
package smt

import (
	"cmp"
	"fmt"
	"hash"
	"slices"
	"strings"
	"sync/atomic"

	"configsynth/internal/pb"
	"configsynth/internal/sat"
)

// Status is the outcome of a Check call.
type Status int8

// Check outcomes.
const (
	// Unknown means the solve budget was exhausted.
	Unknown Status = iota
	// Sat means the assertions (plus assumptions) are satisfiable.
	Sat
	// Unsat means they are not.
	Unsat
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Bool is a Boolean term: a variable or its negation.
type Bool struct{ lit sat.Lit }

// Not returns the negation of the term.
func (b Bool) Not() Bool { return Bool{b.lit.Not()} }

// Lit exposes the underlying SAT literal of the term, for integrating
// custom theory propagators. Most callers should not need this.
func (b Bool) Lit() sat.Lit { return b.lit }

// Valid reports whether the term refers to an allocated variable.
func (b Bool) Valid() bool { return b.lit > sat.LitUndef }

// NoBool is the term that refers to no variable, for which Valid
// reports false. The zero Bool is not it: that is the positive literal
// of variable 0, so a table of terms with holes is filled with NoBool.
var NoBool = Bool{sat.LitUndef}

// Sum is a linear pseudo-Boolean expression Σ weightᵢ·termᵢ where a term
// contributes its weight when true. Weights must be positive.
//
// Once built, a Sum may be asserted from several solvers over the same
// variables at once (clones of one encoded model share their sums): the
// assert methods only read it, apart from the order cache below.
type Sum struct {
	terms   []Bool
	weights []int64
	total   int64

	// order caches the terms in the stable descending-weight order the PB
	// store keeps them in, so that every assertion of the sum — a guarded
	// threshold per what-if query, a probe per optimization step — hands
	// the store pre-sorted input instead of paying a sort each time. It
	// is rebuilt when Add has grown the sum since; concurrent asserters
	// may both build it, and either result is the same.
	order atomic.Pointer[sumOrder]
}

type sumOrder struct {
	lits    []sat.Lit
	weights []int64
}

// Add appends w*b to the sum. Weights must be positive; zero-weight terms
// are dropped.
func (s *Sum) Add(b Bool, w int64) {
	if w == 0 {
		return
	}
	s.terms = append(s.terms, b)
	s.weights = append(s.weights, w)
	s.total += w
}

// Grow makes room for n more terms, for a caller that knows how many it
// is about to Add.
func (s *Sum) Grow(n int) {
	s.terms = slices.Grow(s.terms, n)
	s.weights = slices.Grow(s.weights, n)
}

// Len returns the number of terms.
func (s *Sum) Len() int { return len(s.terms) }

// Total returns the maximum possible value of the sum.
func (s *Sum) Total() int64 { return s.total }

// byWeight returns the sum's literals and weights in stable
// descending-weight order. It is a counting sort over the sum's distinct
// weights, which are few — one per isolation level, flow rank times
// pattern, or device price — where a comparison sort of the F·P terms
// was a measurable share of every encode.
func (s *Sum) byWeight() *sumOrder {
	if o := s.order.Load(); o != nil && len(o.lits) == len(s.terms) {
		return o
	}
	// bucket[i] numbers term i's weight in order of first appearance;
	// distinct[b] is weight b, and next[b] counts its terms.
	bucket := make([]int32, len(s.weights))
	ids := make(map[int64]int32)
	var distinct []int64
	var next []int32
	for i, w := range s.weights {
		b, ok := ids[w]
		if !ok {
			b = int32(len(distinct))
			ids[w] = b
			distinct = append(distinct, w)
			next = append(next, 0)
		}
		bucket[i] = b
		next[b]++
	}
	// Lay the buckets out heaviest first: next[b] becomes the position of
	// bucket b's next term.
	heaviest := make([]int32, len(distinct))
	for b := range heaviest {
		heaviest[b] = int32(b)
	}
	slices.SortFunc(heaviest, func(a, b int32) int { return cmp.Compare(distinct[b], distinct[a]) })
	at := int32(0)
	for _, b := range heaviest {
		at, next[b] = at+next[b], at
	}
	o := &sumOrder{lits: make([]sat.Lit, len(s.terms)), weights: make([]int64, len(s.terms))}
	for i, b := range bucket {
		j := next[b]
		next[b]++
		o.lits[j], o.weights[j] = s.terms[i].lit, s.weights[i]
	}
	s.order.Store(o)
	return o
}

// Solver is an incremental SMT-style solver for Boolean logic plus linear
// pseudo-Boolean arithmetic.
type Solver struct {
	sat *sat.Solver
	th  *pb.Theory
	// Diagnostic names by variable: inherited holds those of the
	// variables the solver was cloned with, shared read-only with the
	// solver it was cloned from and its other clones; names holds those
	// of the variables allocated here, numbered from inherited.len().
	inherited nameTable
	names     nameTable
	lits      []sat.Lit // AddClause scratch
	rootUnsat bool
	trueTerm  Bool
	hasTrue   bool

	model []bool
	// hasModel gates model reads: it is set by a Sat check and cleared at
	// the start of every Check, so Value/EvalSum after a non-Sat check
	// fail loudly instead of silently serving the stale previous model.
	hasModel bool
	core     []Bool

	verify   bool
	inVerify bool
}

// nameTable stores variable names back to back in one byte slab instead
// of one string per variable: an encode names every variable it creates,
// and tens of thousands of string headers are allocations to make and
// pointers for the collector to chase, for text only a diagnostic reads.
type nameTable struct {
	buf []byte
	end []int32 // end[i] is where name i ends in buf; it starts at end[i-1]
}

func (t *nameTable) len() int { return len(t.end) }

func (t *nameTable) add(name string) {
	t.buf = append(t.buf, name...)
	t.end = append(t.end, int32(len(t.buf)))
}

func (t *nameTable) get(i int) string {
	start := int32(0)
	if i > 0 {
		start = t.end[i-1]
	}
	return string(t.buf[start:t.end[i]])
}

// SolverConfig diversifies the underlying CDCL search for portfolio
// solving; see sat.Config. The zero value is the default solver.
type SolverConfig = sat.Config

// Restart schedules, re-exported for SolverConfig users.
const (
	RestartLuby      = sat.RestartLuby
	RestartGeometric = sat.RestartGeometric
)

// NewSolver returns an empty solver with the default configuration.
func NewSolver() *Solver { return NewSolverWith(SolverConfig{}) }

// NewSolverWith returns an empty solver whose CDCL core is diversified
// by cfg (portfolio solving).
func NewSolverWith(cfg SolverConfig) *Solver {
	s := sat.NewWith(cfg)
	return &Solver{
		sat: s,
		th:  pb.New(s),
	}
}

// Clone returns an independent solver over the same assertions, its CDCL
// core configured by cfg: the SAT state and the PB store are deep-copied
// (sat.Solver.Clone, pb.Theory.Clone), the variable names are shared
// read-only (a variable named on either side afterwards goes into that
// side's own table), and no model or core is carried over. A clone
// taken before the first Check searches exactly like a
// NewSolverWith(cfg) solver given the same assertions. Theories attached
// through SAT() are not copied; the caller re-attaches its own clones.
// It fails, with an error wrapping sat.ErrModelTooLarge, when the
// assertions do not fit cfg.ArenaCapWords.
func (s *Solver) Clone(cfg SolverConfig) (*Solver, error) { return s.CloneInto(nil, cfg) }

// CloneInto is Clone built in the memory of spare, a solver the caller
// is done with (sat.Solver.CloneInto, pb.Theory.CloneInto): only the
// capacity of its buffers is read, and the result is state for state
// what Clone(cfg) returns. spare must not be used afterwards; nil is
// Clone. On Clone's error spare is left untouched.
func (s *Solver) CloneInto(spare *Solver, cfg SolverConfig) (*Solver, error) {
	if spare == nil {
		spare = &Solver{}
	}
	core, err := s.sat.CloneInto(spare.sat, cfg)
	if err != nil {
		return nil, err
	}
	return &Solver{
		sat:       core,
		th:        s.th.CloneInto(spare.th, core),
		inherited: s.allNames(),
		rootUnsat: s.rootUnsat,
		trueTerm:  s.trueTerm,
		hasTrue:   s.hasTrue,
		model:     spare.model[:0],
		verify:    s.verify,
	}, nil
}

// Reconfigure makes the solver, in place, what Clone(cfg) would have
// returned (sat.Solver.Reconfigure), for a caller that would clone it
// and drop the original: the PB store and the theories attached through
// SAT() stay bound to it, and no model or core is carried over. On
// Clone's error the solver is left unchanged.
func (s *Solver) Reconfigure(cfg SolverConfig) error {
	if err := s.sat.Reconfigure(cfg); err != nil {
		return err
	}
	s.model, s.hasModel, s.core = nil, false, nil
	return nil
}

// allNames returns one table over every name the solver holds, clipped
// so that it can be shared: the solver's own table or the one it
// inherited when the other is empty (an encoded solver, or a clone that
// has named nothing yet), and a merged copy otherwise.
func (s *Solver) allNames() nameTable {
	t := s.names
	switch {
	case s.names.len() == 0:
		t = s.inherited
	case s.inherited.len() > 0:
		t = nameTable{buf: slices.Concat(s.inherited.buf, s.names.buf), end: slices.Clone(s.inherited.end)}
		for _, e := range s.names.end {
			t.end = append(t.end, int32(len(s.inherited.buf))+e)
		}
	}
	return nameTable{buf: slices.Clip(t.buf), end: slices.Clip(t.end)}
}

// Reserve forwards a capacity hint for the assertions about to be made
// to the SAT core (sat.Solver.Reserve: variables, clauses of two or more
// literals, clause-arena words) and makes room for the name offsets of
// the variables.
func (s *Solver) Reserve(vars, clauses, arenaWords int) {
	s.sat.Reserve(vars, clauses, arenaWords)
	s.names.end = slices.Grow(s.names.end, max(0, vars-s.inherited.len()-s.names.len()))
}

// SetBudget limits the conflicts spent per Check; negative is unlimited.
func (s *Solver) SetBudget(conflicts int64) { s.sat.SetBudget(conflicts) }

// Interrupt asks the solver to abandon the current (or next) Check as
// soon as possible; the check then reports Unknown. Safe to call from
// another goroutine. The flag is sticky until ClearInterrupt.
func (s *Solver) Interrupt() { s.sat.Interrupt() }

// ClearInterrupt re-arms the solver after an Interrupt.
func (s *Solver) ClearInterrupt() { s.sat.ClearInterrupt() }

// ResetSearchState forgets the backend's search heuristics (saved
// phases, activities, restart position) while keeping clauses — learnt
// ones included. See sat.Solver.ResetSearchState; sessions call this
// between queries so heuristic state tuned to the previous thresholds
// cannot derail the next probe.
func (s *Solver) ResetSearchState() { s.sat.ResetSearchState() }

// Digest writes the solver's clause database, root assignment and PB
// store to h (sat.Solver.Digest, then pb.Theory.Digest): the state an
// encode leaves behind, which tests pin.
func (s *Solver) Digest(h hash.Hash) {
	s.sat.Digest(h)
	s.th.Digest(h)
}

// SAT exposes the underlying SAT solver so that callers can attach
// custom theory propagators (sat.Solver.SetTheory). Mutating solver
// state through it directly is not supported.
func (s *Solver) SAT() *sat.Solver { return s.sat }

// NewBool allocates a fresh Boolean term. The name is used only for
// diagnostics.
func (s *Solver) NewBool(name string) Bool {
	v := s.sat.NewVar()
	// Vars are normally allocated only here, but a caller reaching the
	// SAT core directly may have created unnamed ones; keep aligned.
	for int(v) > s.inherited.len()+s.names.len() {
		s.names.add("")
	}
	s.names.add(name)
	return Bool{sat.PosLit(v)}
}

// Name returns the diagnostic name of the term's variable.
func (s *Solver) Name(b Bool) string {
	name := ""
	if v := int(b.lit.Var()); v < s.inherited.len() {
		name = s.inherited.get(v)
	} else if v -= s.inherited.len(); v < s.names.len() {
		name = s.names.get(v)
	}
	if name == "" {
		return b.lit.String()
	}
	if b.lit.Neg() {
		return "!" + name
	}
	return name
}

// True returns a term that is constrained to be true.
func (s *Solver) True() Bool {
	if !s.hasTrue {
		s.trueTerm = s.NewBool("$true")
		s.AddClause(s.trueTerm)
		s.hasTrue = true
	}
	return s.trueTerm
}

// False returns a term that is constrained to be false.
func (s *Solver) False() Bool { return s.True().Not() }

// AddClause asserts the disjunction of the given terms.
func (s *Solver) AddClause(terms ...Bool) {
	s.lits = s.lits[:0]
	s.addLits(terms)
}

// addLits asserts the disjunction of the literals already in the scratch
// and the given terms.
func (s *Solver) addLits(terms []Bool) {
	if s.rootUnsat {
		return
	}
	for _, t := range terms {
		s.lits = append(s.lits, t.lit)
	}
	if err := s.sat.AddClause(s.lits...); err != nil {
		s.rootUnsat = true
	}
}

// AddUnit asserts that b is true.
func (s *Solver) AddUnit(b Bool) { s.AddClause(b) }

// AddImplies asserts a → (c1 ∨ c2 ∨ ...).
func (s *Solver) AddImplies(a Bool, consequent ...Bool) {
	s.lits = append(s.lits[:0], a.lit.Not())
	s.addLits(consequent)
}

// AddIff asserts a ↔ b.
func (s *Solver) AddIff(a, b Bool) {
	s.AddClause(a.Not(), b)
	s.AddClause(b.Not(), a)
}

// pairwiseAtMostOneMax is the group size up to which AddAtMostOne uses
// the pairwise encoding; beyond it the sequential encoding's 3(n−1)
// clauses beat the pairwise n(n−1)/2.
const pairwiseAtMostOneMax = 8

// AtMostOneSize returns what AddAtMostOne over n terms adds to the
// solver: auxiliary variables and clauses, all of them binary.
func AtMostOneSize(n int) (auxVars, clauses int) {
	switch {
	case n < 2:
		return 0, 0
	case n <= pairwiseAtMostOneMax:
		return 0, n * (n - 1) / 2
	default:
		return n - 1, 3*n - 4
	}
}

// AddAtMostOne asserts that at most one of the terms is true. Small
// groups (such as the isolation patterns of one flow) use the pairwise
// encoding; larger groups switch to the sequential (ladder) encoding
// [Sinz 2005], which introduces n−1 auxiliary registers but only 3(n−1)
// binary clauses, preserving arc consistency.
func (s *Solver) AddAtMostOne(terms ...Bool) {
	n := len(terms)
	if n <= pairwiseAtMostOneMax {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s.AddClause(terms[i].Not(), terms[j].Not())
			}
		}
		return
	}
	// reg[i] means "one of terms[0..i] is true". A term may not fire
	// once the register before it is set.
	reg := make([]Bool, n-1)
	for i := range reg {
		reg[i] = s.NewBool(fmt.Sprintf("$amo%d_%d", s.sat.NumVars(), i))
	}
	s.AddClause(terms[0].Not(), reg[0])
	for i := 1; i < n-1; i++ {
		s.AddClause(terms[i].Not(), reg[i])
		s.AddClause(reg[i-1].Not(), reg[i])
		s.AddClause(terms[i].Not(), reg[i-1].Not())
	}
	s.AddClause(terms[n-1].Not(), reg[n-2].Not())
}

// AddExactlyOne asserts that exactly one of the terms is true.
func (s *Solver) AddExactlyOne(terms ...Bool) {
	s.AddClause(terms...)
	s.AddAtMostOne(terms...)
}

// addAtMost hands Σ w·t (+ guardWeight·guard) ≤ bound to the PB store,
// with every sum literal complemented when negate is set. The terms go
// over in the sum's cached descending-weight order with the guard term
// inserted behind the last term at least as heavy as it — where a
// stable sort of "sum terms, then guard" would put it.
func (s *Solver) addAtMost(sum *Sum, negate bool, guard Bool, guardWeight, bound int64) {
	o := sum.byWeight()
	lits := append(make([]sat.Lit, 0, len(o.lits)+1), o.lits...)
	if negate {
		for i := range lits {
			lits[i] = lits[i].Not()
		}
	}
	weights := o.weights
	if guard.Valid() {
		at, _ := slices.BinarySearchFunc(weights, guardWeight, func(w, gw int64) int {
			if w >= gw {
				return -1
			}
			return 1
		})
		lits = slices.Insert(lits, at, guard.lit)
		weights = slices.Insert(append(make([]int64, 0, len(weights)+1), weights...), at, guardWeight)
	}
	if err := s.th.AddAtMost(lits, weights, bound); err != nil || s.th.RootViolated() {
		s.rootUnsat = true
	}
}

// AssertAtMost asserts sum ≤ bound.
func (s *Solver) AssertAtMost(sum *Sum, bound int64) {
	if s.rootUnsat {
		return
	}
	if bound < 0 {
		// The minimum value of a sum is 0, so this is unsatisfiable.
		s.rootUnsat = true
		return
	}
	if bound >= sum.total {
		return // trivially true
	}
	s.addAtMost(sum, false, NoBool, 0, bound)
}

// AssertAtLeast asserts sum ≥ bound.
func (s *Solver) AssertAtLeast(sum *Sum, bound int64) {
	if s.rootUnsat {
		return
	}
	if bound <= 0 {
		return // trivially true
	}
	if bound > sum.total {
		s.rootUnsat = true
		return
	}
	// Σ w·t ≥ K  ⇔  Σ w·¬t ≤ W−K.
	s.addAtMost(sum, true, NoBool, 0, sum.total-bound)
}

// AssertAtMostIf asserts cond → (sum ≤ bound) using a big-M guard:
// Σ w·t + (W−K)·cond ≤ W, which reduces to the bound when cond is true
// and is vacuous otherwise.
func (s *Solver) AssertAtMostIf(cond Bool, sum *Sum, bound int64) {
	if s.rootUnsat || bound >= sum.total {
		return // trivially true under any assignment
	}
	if bound < 0 {
		// cond can never hold.
		s.AddClause(cond.Not())
		return
	}
	s.addAtMost(sum, false, cond, sum.total-bound, sum.total)
}

// AssertAtLeastIf asserts cond → (sum ≥ bound), as the complemented
// at-most: Σ w·¬t + K·cond ≤ W.
func (s *Solver) AssertAtLeastIf(cond Bool, sum *Sum, bound int64) {
	if s.rootUnsat || bound <= 0 {
		return
	}
	if bound > sum.total {
		s.AddClause(cond.Not())
		return
	}
	s.addAtMost(sum, true, cond, bound, sum.total)
}

// SetVerify toggles the solver's self-check mode: after every Sat check
// the model is re-validated against every clause and pseudo-Boolean
// constraint (VerifyModel), and after every Unsat check the reported
// core is re-solved and must stay Unsat (VerifyCore). A failed check
// panics with diagnostics, since it means the solver itself produced an
// unsound answer. Verification is off by default and costs a single
// branch when disabled.
func (s *Solver) SetVerify(on bool) { s.verify = on }

// Verifying reports whether self-check mode is enabled.
func (s *Solver) Verifying() bool { return s.verify }

// Check solves the current assertions under the given assumptions. Any
// model captured by an earlier Sat check is invalidated, whatever this
// check's outcome: only a Sat result leaves a readable model behind.
func (s *Solver) Check(assumptions ...Bool) Status {
	s.core = s.core[:0]
	s.hasModel = false
	if s.rootUnsat || s.th.RootViolated() {
		return Unsat
	}
	lits := make([]sat.Lit, len(assumptions))
	for i, a := range assumptions {
		lits[i] = a.lit
	}
	switch s.sat.Solve(lits...) {
	case sat.Sat:
		s.captureModel()
		if s.verify && !s.inVerify {
			if err := s.VerifyModel(); err != nil {
				panic(fmt.Sprintf("smt: self-check failed after Sat: %v", err))
			}
		}
		return Sat
	case sat.Unsat:
		for _, l := range s.sat.UnsatCore() {
			s.core = append(s.core, Bool{l})
		}
		if s.verify && !s.inVerify {
			if err := s.VerifyCore(); err != nil {
				panic(fmt.Sprintf("smt: self-check failed after Unsat: %v", err))
			}
		}
		return Unsat
	default:
		return Unknown
	}
}

// VerifyModel re-checks the model of the last Sat check against every
// clause (problem and learnt) and every pseudo-Boolean constraint. It
// returns nil when the model is sound.
func (s *Solver) VerifyModel() error {
	if err := s.sat.VerifyModel(); err != nil {
		return err
	}
	return s.th.VerifyModel(func(l sat.Lit) bool {
		return s.sat.ModelValue(l) == sat.True
	})
}

// VerifyCore re-solves under the failed assumptions of the last Unsat
// check, alone: if the core is sound the result must again be Unsat. An
// Unknown re-check (budget exhausted) is treated as inconclusive and
// passes. The solver's core is restored afterwards (and the model is
// untouched unless the check fails), so a passing call is
// observationally free.
func (s *Solver) VerifyCore() error {
	core := append([]Bool(nil), s.core...)
	s.inVerify = true
	st := s.Check(core...)
	s.inVerify = false
	s.core = core
	if st == Sat {
		names := make([]string, len(core))
		for i, b := range core {
			names[i] = s.Name(b)
		}
		return fmt.Errorf("smt: unsat core {%s} is unsound: re-solving under it alone is satisfiable",
			strings.Join(names, ", "))
	}
	return nil
}

func (s *Solver) captureModel() {
	n := s.sat.NumVars()
	if cap(s.model) < n {
		s.model = make([]bool, n)
	}
	s.model = s.model[:n]
	for v := 0; v < n; v++ {
		s.model[v] = s.sat.ModelValue(sat.PosLit(sat.Var(v))) == sat.True
	}
	s.hasModel = true
}

// HasModel reports whether a model from a Sat check is available to
// read: true after a Sat Check, false after Unsat or Unknown and before
// the first check.
func (s *Solver) HasModel() bool { return s.hasModel }

// Value returns b's value in the model of the last Sat check. It panics
// when no model is available — after an Unsat or Unknown check the
// previous model is stale, and reading it silently was a soundness
// landmine for callers that reuse one solver across checks.
func (s *Solver) Value(b Bool) bool {
	if !s.hasModel {
		panic("smt: Value called with no model (last Check was not Sat)")
	}
	v := b.lit.Var()
	if int(v) >= len(s.model) {
		return false
	}
	return s.model[v] != b.lit.Neg()
}

// EvalSum evaluates the sum against the last model. Like Value, it
// panics when the last check did not produce a model.
func (s *Solver) EvalSum(sum *Sum) int64 {
	if !s.hasModel {
		panic("smt: EvalSum called with no model (last Check was not Sat)")
	}
	var total int64
	for i, t := range sum.terms {
		if s.Value(t) {
			total += sum.weights[i]
		}
	}
	return total
}

// Core returns the failed assumptions of the last Unsat check, as passed
// to Check. An empty core after Unsat means the assertions are
// unsatisfiable regardless of assumptions.
func (s *Solver) Core() []Bool {
	out := make([]Bool, len(s.core))
	copy(out, s.core)
	return out
}

// Stats is the SAT solver's snapshot (its shape and sat.Counters) plus
// the number of PB constraints the theory holds.
type Stats struct {
	sat.Stats
	PBConstraints int
}

// Stats returns a snapshot of solver counters.
func (s *Solver) Stats() Stats { return Stats{s.sat.Stats(), s.th.NumConstraints()} }
