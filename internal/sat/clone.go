package sat

import "slices"

// cloneVarRoom is the spare per-variable capacity a clone starts with:
// room for the variables callers add to it next (threshold guards,
// optimization probes), so that the first NewVar does not reallocate
// every per-variable array.
const cloneVarRoom = 64

// Clone returns an independent solver over the same clause database and
// root-level assignment, configured by cfg. Encoding a large formula is
// far more expensive than copying its flat state, so a caller that needs
// several solvers over one formula encodes once and clones.
//
// Everything search mutates is copied: the clause arena (clause bodies
// are permuted in place by propagation), the clause lists, the watcher
// lists (one backing slab, each list clipped so an append reallocates
// instead of running into its neighbour), the per-variable arrays and
// the trail. The counters are copied too, so a clone reports what a
// solver that had added the same clauses itself would report. The
// search heuristics are not copied: phases, activities, heap order,
// restart position and PRNG start at their fresh-solver values under
// cfg, exactly as ResetSearchState leaves them. A clone taken before
// any Solve is therefore state for state the solver NewWith(cfg) would
// be after the same AddClause sequence — encoding never consults the
// heuristics — and searches bit-identically to it.
//
// Theories are not carried over: the caller attaches clones of them, in
// the original attachment order, bound to the returned solver. Theory
// reasons of root literals are dropped with them; reasons below level 1
// are never consulted (simplifyRoot clears them wholesale). Per-Solve
// outputs (model, failed assumptions), a pending interrupt and the
// clause-sharing buffers start empty.
//
// Clone must be called at the root level, between Solve calls. If the
// arena already exceeds cfg.ArenaCapWords the formula could not have
// been added under cfg, and the error NewWith(cfg) would have raised
// while adding it (wrapping ErrModelTooLarge) is returned instead.
func (s *Solver) Clone(cfg Config) (*Solver, error) {
	if s.decisionLevel() != 0 {
		panic("sat: Clone off the root level")
	}
	if err := s.fits(cfg); err != nil {
		return nil, err
	}
	n := s.NumVars()
	room := n + cloneVarRoom
	c := &Solver{
		wasted:     s.wasted,
		arenaCap:   cfg.ArenaCapWords,
		clauseRefs: slices.Clone(s.clauseRefs),
		learntRefs: slices.Clone(s.learntRefs),

		vals:     append(make([]LBool, 0, 2*room), s.vals...),
		level:    append(make([]int32, 0, room), s.level...),
		trailPos: append(make([]int32, 0, room), s.trailPos...),
		reason:   append(make([]int32, 0, room), s.reason...),
		trail:    append(make([]Lit, 0, room), s.trail...),
		qhead:    s.qhead,

		activity: make([]float64, n, room),
		polarity: make([]bool, n, room),
		claInc:   s.claInc,

		seen:    make([]byte, n, room),
		lazyEx:  make([]LazyExplainer, n, room),
		lazyTag: make([]int32, n, room),

		rootUnsat:         s.rootUnsat,
		maxLearnts:        s.maxLearnts,
		budget:            s.budget,
		stats:             s.stats,
		nextInprocess:     s.nextInprocess,
		lastSimplifyTrail: s.lastSimplifyTrail,

		cfg: cfg,
	}
	// Headroom for the first learnt clauses, as an append-grown arena has.
	c.arena = append(make([]Lit, 0, len(s.arena)+len(s.arena)/8), s.arena...)

	total := 0
	for _, ws := range s.watches {
		total += len(ws)
	}
	slab := make([]watcher, total)
	c.watches = make([][]watcher, len(s.watches), 2*room)
	off := 0
	for i, ws := range s.watches {
		end := off + copy(slab[off:], ws)
		c.watches[i] = slab[off:end:end]
		off = end
	}

	c.dropTheoryReasons()
	c.order.act = &c.activity
	c.order.heap = make([]Var, 0, room)
	c.order.indices = make([]int32, n, room)
	c.ResetSearchState()
	return c, nil
}

// Reconfigure makes the solver, in place, what Clone(cfg) would have
// returned: cfg and its arena cap, no theory reasons on root literals,
// the search heuristics reset under cfg. A caller that would clone a
// solver and then drop the original calls it instead and skips the copy.
// The solver keeps its theories, which are bound to it already. Like
// Clone it must be called at the root level, between Solve calls, and
// it returns Clone's error, leaving the solver unchanged, when the
// clause arena does not fit cfg.ArenaCapWords.
func (s *Solver) Reconfigure(cfg Config) error {
	if s.decisionLevel() != 0 {
		panic("sat: Reconfigure off the root level")
	}
	if err := s.fits(cfg); err != nil {
		return err
	}
	s.cfg, s.arenaCap = cfg, cfg.ArenaCapWords
	s.dropTheoryReasons()
	s.ResetSearchState()
	return nil
}

// fits returns the error NewWith(cfg) would have raised while adding the
// solver's clause arena, or nil if the arena fits cfg.ArenaCapWords.
func (s *Solver) fits(cfg Config) error {
	if limit := arenaLimit(cfg.ArenaCapWords); len(s.arena) > limit {
		return &ArenaOverflowError{Need: len(s.arena), Cap: limit}
	}
	return nil
}

// dropTheoryReasons forgets which root literals a theory implied; see
// Clone.
func (s *Solver) dropTheoryReasons() {
	for v, r := range s.reason {
		if r == reasonTheory {
			s.reason[v] = reasonNone
		}
	}
}
