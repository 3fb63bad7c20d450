package core

import "configsynth/internal/sat"

// flowTheory is a domain-specific DPLL(T) propagator that reasons about
// the joint effect of the isolation and usability constraints across all
// flows at once — the counting argument that clause learning alone cannot
// perform efficiently (the SMT analogue of Z3's arithmetic engine, which
// the paper relies on).
//
// For every flow it tracks which isolation patterns are still available
// (a pattern is unavailable once its y variable is false; a flow is
// committed once one is true). From this it maintains the maximum
// achievable network isolation subject to the active usability budget:
// per-flow, zero-loss options contribute their best score freely, while
// lossy options (e.g. access deny under the paper's default usability
// valuation) compete for the loss budget. When every lossy option in the
// model carries the same loss λ, the bound is exact: take the D =
// ⌊budget/λ⌋ largest per-flow gains. Otherwise the theory falls back to
// the budget-free bound, which is still a sound upper bound.
//
// When the bound drops below an active isolation threshold the theory
// reports a conflict whose explanation mentions only the guard literals
// and the y literals that constrain the bound; conflict analysis then
// resolves these back to the device-placement decisions that caused
// them, yielding short, reusable learnt clauses.
type flowTheory struct {
	solver *sat.Solver

	flows []ftFlow
	// flowOf maps a variable to the flow it is a y variable of, or -1; it
	// covers the variables that existed when the theory was built, is
	// fixed from then on and shared between clones. guardVar marks the
	// variables of the guard literals we watch.
	flowOf   []int32
	guardVar []bool

	isoGuards  []ftGuard // lit -> isolation lower bound (raw score units)
	lossGuards []ftGuard // lit -> loss budget (raw loss units)

	uniformLoss int64 // λ if all lossy options share one loss, else 0
	maxGain     int64 // largest possible per-flow gain (≤ max score)

	baseIso    int64   // Σ per-flow current contribution
	lossBase   int64   // Σ loss of committed lossy options
	gainCounts []int64 // count of uncommitted flows per bestGain value

	dirty     []int32
	dirtySet  []bool
	stateDirt bool // any guard or flow change since last check

	expl []sat.Lit
}

type ftGuard struct {
	lit   sat.Lit
	bound int64
}

type ftOption struct {
	lit  sat.Lit
	iso  int64
	loss int64
}

type ftFlow struct {
	options   []ftOption
	committed int32 // option index, or -1
	bestFree  int64 // best zero-loss contribution among available options
	bestGain  int64 // best lossy improvement over bestFree (0 if none)
	staticMax int64 // max iso over all options, regardless of assignment
	contrib   int64 // current contribution to baseIso
}

var (
	_ sat.Theory     = (*flowTheory)(nil)
	_ sat.Unassigner = (*flowTheory)(nil)
)

// newFlowTheory builds the theory from the synthesizer's y variables and
// attaches it to the solver. It must be called before the first Check;
// literals assigned at the root level are folded into the initial state
// (the solver backtracks there first, should a search have left a trail).
func newFlowTheory(solver *sat.Solver, flows [][]ftOption) *flowTheory {
	solver.BacktrackToRoot()
	t := &flowTheory{
		solver: solver,
		flows:  make([]ftFlow, 0, len(flows)),
		flowOf: make([]int32, solver.NumVars()),
	}
	for v := range t.flowOf {
		t.flowOf[v] = -1
	}
	uniform := int64(-1) // -1: unseen, 0: mixed, >0: the uniform λ
	for fi, opts := range flows {
		f := ftFlow{options: opts, committed: -1}
		for _, o := range opts {
			t.flowOf[o.lit.Var()] = int32(fi)
			if o.iso > f.staticMax {
				f.staticMax = o.iso
			}
			if o.iso > t.maxGain {
				t.maxGain = o.iso
			}
			if o.loss > 0 {
				switch uniform {
				case -1:
					uniform = o.loss
				case o.loss:
				default:
					uniform = 0
				}
			}
		}
		t.flows = append(t.flows, f)
	}
	if uniform > 0 {
		t.uniformLoss = uniform
	}
	t.gainCounts = make([]int64, t.maxGain+1)
	t.dirtySet = make([]bool, len(t.flows))
	for i := range t.flows {
		t.recompute(int32(i))
	}
	t.stateDirt = true
	solver.SetTheory(t)
	return t
}

// cloneInto returns a copy of the theory attached to solver, a clone of
// the solver t is attached to, built in the buffers of spare, a theory
// no longer in use (nil for none), wherever they are large enough. The
// per-flow state, aggregates and queues are copied; the option lists
// and the variable index are fixed at construction and shared.
func (t *flowTheory) cloneInto(spare *flowTheory, solver *sat.Solver) *flowTheory {
	if spare == nil {
		spare = &flowTheory{}
	}
	c := *t
	c.solver = solver
	c.flows = append(spare.flows[:0], t.flows...)
	c.guardVar = append(spare.guardVar[:0], t.guardVar...)
	c.isoGuards = append(spare.isoGuards[:0], t.isoGuards...)
	c.lossGuards = append(spare.lossGuards[:0], t.lossGuards...)
	c.gainCounts = append(spare.gainCounts[:0], t.gainCounts...)
	c.dirty = append(spare.dirty[:0], t.dirty...)
	c.dirtySet = append(spare.dirtySet[:0], t.dirtySet...)
	c.expl = spare.expl[:0]
	solver.SetTheory(&c)
	return &c
}

// watchIsoGuard registers lit → (isolation ≥ bound) with the theory.
func (t *flowTheory) watchIsoGuard(lit sat.Lit, bound int64) {
	t.isoGuards = append(t.isoGuards, ftGuard{lit: lit, bound: bound})
	t.watchGuard(lit)
}

// watchLossGuard registers lit → (loss ≤ bound) with the theory.
func (t *flowTheory) watchLossGuard(lit sat.Lit, bound int64) {
	t.lossGuards = append(t.lossGuards, ftGuard{lit: lit, bound: bound})
	t.watchGuard(lit)
}

func (t *flowTheory) watchGuard(lit sat.Lit) {
	v := int(lit.Var())
	if v >= len(t.guardVar) {
		t.guardVar = append(t.guardVar, make([]bool, v+1-len(t.guardVar))...)
	}
	t.guardVar[v] = true
	t.stateDirt = true
}

func (t *flowTheory) markDirty(fi int32) {
	if !t.dirtySet[fi] {
		t.dirtySet[fi] = true
		t.dirty = append(t.dirty, fi)
	}
	t.stateDirt = true
}

// Assign implements sat.Theory. It runs on every literal the solver
// assigns or undoes, most of which are neither a y nor a guard, so what
// the variable is to the theory is one slice read.
func (t *flowTheory) Assign(l sat.Lit) {
	v := int(l.Var())
	if v < len(t.flowOf) && t.flowOf[v] >= 0 {
		t.markDirty(t.flowOf[v])
		return
	}
	if v < len(t.guardVar) && t.guardVar[v] {
		t.stateDirt = true
	}
}

// Unassign implements sat.Unassigner.
func (t *flowTheory) Unassign(l sat.Lit) { t.Assign(l) }

// recompute refreshes one flow's derived values and the global
// aggregates.
func (t *flowTheory) recompute(fi int32) {
	f := &t.flows[fi]
	// Remove old aggregate contributions.
	t.baseIso -= f.contrib
	if f.committed < 0 && f.bestGain > 0 {
		t.gainCounts[f.bestGain]--
	}
	if f.committed >= 0 {
		t.lossBase -= f.options[f.committed].loss
	}

	f.committed = -1
	f.bestFree = 0 // "no isolation" is always a zero-loss choice
	f.bestGain = 0
	for oi, o := range f.options {
		switch t.value(o.lit) {
		case sat.True:
			f.committed = int32(oi)
		case sat.Undef:
			if o.loss == 0 && o.iso > f.bestFree {
				f.bestFree = o.iso
			}
		}
	}
	if f.committed >= 0 {
		f.contrib = f.options[f.committed].iso
		t.lossBase += f.options[f.committed].loss
	} else {
		for _, o := range f.options {
			if o.loss > 0 && t.value(o.lit) == sat.Undef {
				if gain := o.iso - f.bestFree; gain > f.bestGain {
					f.bestGain = gain
				}
			}
		}
		f.contrib = f.bestFree
		if f.bestGain > 0 {
			t.gainCounts[f.bestGain]++
		}
	}
	t.baseIso += f.contrib
}

func (t *flowTheory) value(l sat.Lit) sat.LBool {
	return t.solver.ValueLit(l)
}

// activeBounds returns the strongest active isolation requirement and
// loss budget, with the guard literal enforcing each.
func (t *flowTheory) activeBounds() (isoK int64, isoLit sat.Lit, budget int64, budgetLit sat.Lit, hasBudget bool) {
	isoLit, budgetLit = sat.LitUndef, sat.LitUndef
	for _, g := range t.isoGuards {
		if t.value(g.lit) == sat.True && g.bound > isoK {
			isoK, isoLit = g.bound, g.lit
		}
	}
	for _, g := range t.lossGuards {
		if t.value(g.lit) == sat.True && (!hasBudget || g.bound < budget) {
			budget, budgetLit, hasBudget = g.bound, g.lit, true
		}
	}
	return isoK, isoLit, budget, budgetLit, hasBudget
}

// Propagate implements sat.Theory: it refreshes dirty flows and reports
// a conflict when the maximum achievable isolation under the active
// usability budget falls below an active isolation threshold. The
// conflict aliases t.expl, as sat.Theory allows.
func (t *flowTheory) Propagate(s *sat.Solver) []sat.Lit {
	if !t.stateDirt {
		return nil
	}
	for _, fi := range t.dirty {
		t.dirtySet[fi] = false
		t.recompute(fi)
	}
	t.dirty = t.dirty[:0]
	t.stateDirt = false

	isoK, isoLit, budget, budgetLit, hasBudget := t.activeBounds()
	if isoLit == sat.LitUndef || isoK <= 0 {
		return nil
	}

	allGains := int64(0)
	for g, c := range t.gainCounts {
		allGains += int64(g) * c
	}
	ub := t.baseIso + allGains
	budgetBinding := false
	if hasBudget && t.uniformLoss > 0 {
		remaining := budget - t.lossBase
		if remaining < 0 {
			remaining = 0 // the PB layer reports the loss overrun itself
		}
		d := remaining / t.uniformLoss
		top := t.topGains(d)
		if t.baseIso+top < ub {
			budgetBinding = true
			ub = t.baseIso + top
		}
	}
	if ub >= isoK {
		return nil
	}

	// Conflict: explain which facts cap the bound.
	t.expl = t.expl[:0]
	t.expl = append(t.expl, isoLit.Not())
	if budgetBinding {
		t.expl = append(t.expl, budgetLit.Not())
	}
	for fi := range t.flows {
		f := &t.flows[fi]
		if f.committed >= 0 {
			c := f.options[f.committed]
			// The commitment matters if it caps this flow's score or,
			// when the budget binds, if it consumes budget.
			if c.iso < f.staticMax || (budgetBinding && c.loss > 0) {
				t.expl = append(t.expl, c.lit.Not())
			}
			continue
		}
		for _, o := range f.options {
			if t.value(o.lit) == sat.False && o.iso > f.bestFree {
				t.expl = append(t.expl, o.lit)
			}
		}
	}
	return t.expl
}

// topGains sums the d largest per-flow gains.
func (t *flowTheory) topGains(d int64) int64 {
	var sum int64
	for g := len(t.gainCounts) - 1; g >= 1 && d > 0; g-- {
		c := t.gainCounts[g]
		if c > d {
			c = d
		}
		sum += int64(g) * c
		d -= c
	}
	return sum
}
