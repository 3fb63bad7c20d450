package sat

import "sort"

// Clause sharing (portfolio support). A racing solver that loses a probe
// still learned clauses the winner never saw; with sharing enabled, its
// sharpest learnt clauses — binary or low-LBD — are copied into a
// bounded outgoing buffer at learn time. The portfolio coordinator
// drains every worker's buffer at race-join points (after all workers
// stopped, so no locking is needed beyond the solvers' own lifecycle)
// and imports the union into the next round's workers at the root level.
//
// Fingerprints of both exported and imported clauses accumulate in
// shareSeen, so a clause never crosses the exchange twice for the same
// solver: a worker does not re-import what it exported, and repeated
// drains do not duplicate.
const (
	// shareMaxLBD is the largest literal-block distance worth
	// exporting; binary clauses are always exported.
	shareMaxLBD = 3
	// shareMaxOut bounds the outgoing buffer; once full, further export
	// candidates are counted in Stats.SharedDropped and discarded
	// (dropping a learnt clause is always sound).
	shareMaxOut = 256
)

// SetShareCollect enables or disables collection of sharp learnt clauses
// into the outgoing share buffer.
func (s *Solver) SetShareCollect(on bool) {
	s.shareCollect = on
	if on && s.shareSeen == nil {
		s.shareSeen = make(map[uint64]struct{})
	}
}

// shareFingerprint hashes the clause as a set: FNV-1a over the literals
// in sorted order, so permutations collide intentionally.
func shareFingerprint(sorted []Lit) uint64 {
	h := uint64(14695981039346656037)
	for _, l := range sorted {
		x := uint32(l)
		for i := 0; i < 4; i++ {
			h ^= uint64(byte(x))
			h *= 1099511628211
			x >>= 8
		}
	}
	return h
}

// shareExport queues a copy of a freshly learnt clause for the next
// drain. Called from the search loop right after the clause is attached.
func (s *Solver) shareExport(lits []Lit) {
	cp := make([]Lit, len(lits))
	copy(cp, lits)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	fp := shareFingerprint(cp)
	if _, dup := s.shareSeen[fp]; dup {
		return
	}
	if len(s.shareOut) >= shareMaxOut {
		s.stats.SharedDropped++
		return
	}
	s.shareSeen[fp] = struct{}{}
	s.shareOut = append(s.shareOut, cp)
}

// DrainShared returns the accumulated outgoing clauses and resets the
// buffer. The clauses are fully owned by the caller. Must not be called
// while Solve runs; it backtracks to the root level first.
func (s *Solver) DrainShared() [][]Lit {
	s.BacktrackToRoot()
	out := s.shareOut
	s.shareOut = nil
	return out
}

// ImportClause adds a learnt clause obtained from another solver over
// the same variable space. It must be called outside Solve, and
// backtracks to the root level first. Clauses satisfied at the root are skipped, false literals are
// stripped, and the remainder is attached as a learnt clause (or
// asserted as a root unit). Duplicate imports — including clauses this
// solver itself exported — are skipped via the shared fingerprint set.
// Importing is sound because learnt clauses are assumption-free logical
// consequences of the (identical) formula.
func (s *Solver) ImportClause(lits []Lit) {
	s.BacktrackToRoot()
	if s.rootUnsat || len(lits) == 0 {
		return
	}
	if s.shareSeen == nil {
		s.shareSeen = make(map[uint64]struct{})
	}
	cp := make([]Lit, len(lits))
	copy(cp, lits)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	fp := shareFingerprint(cp)
	if _, dup := s.shareSeen[fp]; dup {
		return
	}
	s.shareSeen[fp] = struct{}{}
	out := cp[:0]
	for _, l := range cp {
		if int(l.Var()) >= s.NumVars() {
			return // foreign variable: not our encoding, drop defensively
		}
		switch s.ValueLit(l) {
		case True:
			return // already satisfied at root
		case False:
			continue
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.rootUnsat = true
	case 1:
		if !s.enqueue(out[0], reasonNone) || s.propagate() != nil {
			s.rootUnsat = true
		}
	default:
		lbd := len(out)
		s.attachNew(out, true, lbd)
	}
	s.stats.SharedKept++
}
