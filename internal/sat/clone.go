package sat

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
// outputs (model, failed assumptions) and a pending interrupt start
// empty.
//
// Clone backtracks s to the root level first. If the arena already
// exceeds cfg.ArenaCapWords the formula could not have been added under
// cfg, and the error NewWith(cfg) would have raised while adding it
// (wrapping ErrModelTooLarge) is returned instead.
func (s *Solver) Clone(cfg Config) (*Solver, error) { return s.CloneInto(nil, cfg) }

// CloneInto is Clone built in the memory of spare, a solver the caller
// is done with: the copy goes into spare's buffers wherever they are
// large enough, instead of into new ones. Any spare will do — of
// another formula, larger or smaller, or left mid-search by an
// interrupt or a panic — because only the capacity of its buffers is
// read, never their contents; the result is state for state what
// Clone(cfg) returns. spare must not be used afterwards, and must not
// share a buffer with a solver still in use: a solver from Clone,
// CloneInto or New qualifies. A nil spare is Clone. On Clone's error
// spare is left untouched.
func (s *Solver) CloneInto(spare *Solver, cfg Config) (*Solver, error) {
	s.BacktrackToRoot()
	if err := s.fits(cfg); err != nil {
		return nil, err
	}
	if spare == nil {
		spare = &Solver{}
	}
	n := s.NumVars()
	room := n + cloneVarRoom
	c := &Solver{
		wasted:     s.wasted,
		arenaCap:   cfg.ArenaCapWords,
		clauseRefs: append(recycled(spare.clauseRefs, len(s.clauseRefs)), s.clauseRefs...),
		learntRefs: append(recycled(spare.learntRefs, len(s.learntRefs)), s.learntRefs...),

		vals:     append(recycled(spare.vals, 2*room), s.vals...),
		level:    append(recycled(spare.level, room), s.level...),
		trailPos: append(recycled(spare.trailPos, room), s.trailPos...),
		reason:   append(recycled(spare.reason, room), s.reason...),
		trail:    append(recycled(spare.trail, room), s.trail...),
		qhead:    s.qhead,

		// ResetSearchState below sets every activity and phase.
		activity: recycled(spare.activity, room)[:n],
		polarity: recycled(spare.polarity, room)[:n],
		claInc:   s.claInc,

		seen:    zeroed(spare.seen, n, room),
		lazyEx:  zeroed(spare.lazyEx, n, room),
		lazyTag: zeroed(spare.lazyTag, n, room),
		model:   spare.model[:0],

		rootUnsat:         s.rootUnsat,
		maxLearnts:        s.maxLearnts,
		budget:            s.budget,
		stats:             s.stats,
		nextInprocess:     s.nextInprocess,
		lastSimplifyTrail: s.lastSimplifyTrail,

		cfg: cfg,
	}
	// Headroom for the first learnt clauses, as an append-grown arena has.
	c.arena = append(recycled(spare.arena, len(s.arena)+len(s.arena)/8), s.arena...)

	total := 0
	for _, ws := range s.watches {
		total += len(ws)
	}
	c.watchSlab = recycled(spare.watchSlab, total)[:total]
	c.watches = zeroed(spare.watches, len(s.watches), 2*room)
	off := 0
	for i, ws := range s.watches {
		end := off + copy(c.watchSlab[off:], ws)
		c.watches[i] = c.watchSlab[off:end:end]
		off = end
	}

	c.dropTheoryReasons()
	c.order.act = &c.activity
	c.order.heap = recycled(spare.order.heap, room)
	c.order.indices = recycled(spare.order.indices, room)[:n]
	c.ResetSearchState()
	return c, nil
}

// recycled returns buf emptied when it can hold n elements, and a new
// slice of capacity n otherwise. The elements past the length are not
// cleared: the caller overwrites what it reads.
func recycled[S ~[]E, E any](buf S, n int) S {
	if cap(buf) >= n {
		return buf[:0]
	}
	return make(S, 0, n)
}

// zeroed returns n zero elements with room for at least capacity,
// reusing buf when it can hold that many. All of a reused buf is
// cleared, so that nothing past the length keeps the spare's memory
// reachable.
func zeroed[S ~[]E, E any](buf S, n, capacity int) S {
	z := recycled(buf, capacity)
	clear(z[:cap(z)])
	return z[:n]
}

// Reconfigure makes the solver, in place, what Clone(cfg) would have
// returned: cfg and its arena cap, no theory reasons on root literals,
// the search heuristics reset under cfg. A caller that would clone a
// solver and then drop the original calls it instead and skips the copy.
// The solver keeps its theories, which are bound to it already. Like
// Clone it must be called between Solve calls, it backtracks to the root level first, and it returns Clone's error,
// leaving the solver otherwise unchanged, when the clause arena does not
// fit cfg.ArenaCapWords.
func (s *Solver) Reconfigure(cfg Config) error {
	s.BacktrackToRoot()
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
