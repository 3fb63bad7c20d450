package sat

import (
	"errors"
	"fmt"
	"math"
)

// ErrModelTooLarge reports that the clause arena outgrew its 31-bit
// cref space (or a test-injected lower cap): every clause is addressed
// by an int32 word index, so an encode or a learnt clause that would
// push the arena past the cap cannot be represented. The solver panics
// with an error wrapping this sentinel at the exact allocation that
// would overflow — before any cref wraps negative — and the portfolio
// and service layers unwrap it into a typed failure (HTTP 422) instead
// of a worker death. Decomposition (mode=decomp) is the designed way
// around the limit: its per-region models stay far below the cap.
var ErrModelTooLarge = errors.New("sat: model too large for the 31-bit clause arena")

// defaultArenaCap is the hard architectural limit: crefs are int32 word
// indexes, so the arena may never reach 2^31 words.
const defaultArenaCap = math.MaxInt32

// ArenaOverflowError is the panic value raised by an allocation that
// would exceed the clause arena's cref space. It wraps ErrModelTooLarge
// so every layer can classify it with errors.Is.
type ArenaOverflowError struct {
	Words int // arena size at the failed allocation
	Need  int // words the allocation required
	Cap   int // effective cap (31-bit, or the test-injected one)
}

func (e *ArenaOverflowError) Error() string {
	return fmt.Sprintf("%v: arena at %d words, allocation of %d would exceed cap %d",
		ErrModelTooLarge, e.Words, e.Need, e.Cap)
}

func (e *ArenaOverflowError) Unwrap() error { return ErrModelTooLarge }

// The clause arena.
//
// Clauses live in one flat []Lit slab addressed by integer clause
// references (crefs), MiniSat-style, instead of individually allocated
// structs: propagation walks contiguous memory, the garbage collector
// sees a single allocation instead of one object per clause, and freeing
// a clause is a header-bit flip. Each clause occupies hdrWords+size
// words:
//
//	word 0   header: size (24 bits) | learnt | freed | reloced | LBD (5 bits)
//	word 1   learnt activity (float32 bits); forward cref during GC
//	word 2+  the literals
//
// Freed clauses (clause-database reduction, subsumption, root
// simplification) remain as holes accounted in wasted; when holes exceed
// a quarter of the arena, garbageCollect compacts live clauses into a
// fresh slab and remaps every watcher, reason, and clause-list cref.
const (
	hdrWords    = 2
	hdrSizeMask = 1<<24 - 1
	hdrLearnt   = 1 << 24
	hdrFreed    = 1 << 25
	hdrReloced  = 1 << 26
	hdrLBDShift = 27
	// MaxLBD is the largest literal-block distance the header stores;
	// larger values saturate (they are all "poor glue" anyway).
	MaxLBD = 31
)

func (s *Solver) clsHeader(c int32) uint32 { return uint32(s.arena[c]) }
func (s *Solver) clsSize(c int32) int      { return int(uint32(s.arena[c]) & hdrSizeMask) }
func (s *Solver) clsLearnt(c int32) bool   { return uint32(s.arena[c])&hdrLearnt != 0 }
func (s *Solver) clsFreed(c int32) bool    { return uint32(s.arena[c])&hdrFreed != 0 }
func (s *Solver) clsLBD(c int32) int       { return int(uint32(s.arena[c]) >> hdrLBDShift) }

// clsLits returns the clause body. The slice aliases the arena: it is
// invalidated by any clause allocation or garbage collection, so it must
// not be held across allocClause or garbageCollect.
func (s *Solver) clsLits(c int32) []Lit {
	n := int32(uint32(s.arena[c]) & hdrSizeMask)
	return s.arena[c+hdrWords : c+hdrWords+n : c+hdrWords+n]
}

func (s *Solver) clsAct(c int32) float32 {
	return math.Float32frombits(uint32(s.arena[c+1]))
}

func (s *Solver) setClsAct(c int32, a float32) {
	s.arena[c+1] = Lit(int32(math.Float32bits(a)))
}

func (s *Solver) setClsLBD(c int32, lbd int) {
	if lbd > MaxLBD {
		lbd = MaxLBD
	}
	h := uint32(s.arena[c])&(1<<hdrLBDShift-1) | uint32(lbd)<<hdrLBDShift
	s.arena[c] = Lit(int32(h))
}

// demoteToProblem clears the learnt bit: the clause becomes a problem
// clause that database reduction may never delete. Used when a learnt
// clause subsumes a problem clause — the subsumed original is only
// removable if its subsumer is permanent.
func (s *Solver) demoteToProblem(c int32) {
	s.arena[c] = Lit(int32(uint32(s.arena[c]) &^ hdrLearnt))
}

// ClauseWords returns the arena words a stored clause of n literals
// occupies, for callers that size a formula before adding it (Reserve).
func ClauseWords(n int) int { return hdrWords + n }

// ArenaLimit returns the effective arena cap in words: the 31-bit cref
// ceiling, or the lower Config.ArenaCapWords.
func (s *Solver) ArenaLimit() int { return arenaLimit(s.arenaCap) }

// arenaLimit is ArenaLimit for a solver whose arena cap is capWords.
func arenaLimit(capWords int) int {
	if capWords > 0 {
		return capWords
	}
	return defaultArenaCap
}

// allocClause appends a clause to the arena and returns its cref. The
// literal slice is copied, not retained. An allocation that would push
// the arena past the cref address space panics with ErrModelTooLarge
// (wrapped), which the portfolio/service layers convert into a typed
// error — the alternative is a wrapped-negative cref and a corrupt
// index panic minutes later.
func (s *Solver) allocClause(lits []Lit, learnt bool, lbd int) int32 {
	// Compaction cannot rescue an overflow here: GC remaps crefs, and
	// allocClause callers hold crefs across the call, so the only safe
	// outcome is the typed panic.
	if len(s.arena)+hdrWords+len(lits) > s.ArenaLimit() {
		panic(&ArenaOverflowError{Words: len(s.arena), Need: hdrWords + len(lits), Cap: s.ArenaLimit()})
	}
	c := int32(len(s.arena))
	h := uint32(len(lits))
	if learnt {
		h |= hdrLearnt
	}
	if lbd > MaxLBD {
		lbd = MaxLBD
	}
	h |= uint32(lbd) << hdrLBDShift
	s.arena = append(s.arena, Lit(int32(h)), 0)
	s.arena = append(s.arena, lits...)
	if learnt {
		s.setClsAct(c, float32(s.claInc))
	}
	return c
}

// freeClause marks the clause as a reclaimable hole. Freeing twice is a
// bug (a stale cref after free-slot reuse corrupted earlier designs), so
// it panics rather than corrupting the wasted accounting.
func (s *Solver) freeClause(c int32) {
	if s.clsFreed(c) {
		panic("sat: double free of clause")
	}
	s.wasted += s.clsSize(c) + hdrWords
	s.arena[c] = Lit(int32(uint32(s.arena[c]) | hdrFreed))
}

// shrinkClause drops the literal at index i (order of the remaining
// literals is preserved; the tail word becomes arena waste). The caller
// is responsible for watcher consistency when i < 2.
func (s *Solver) shrinkClause(c int32, i int) {
	lits := s.clsLits(c)
	copy(lits[i:], lits[i+1:])
	s.arena[c] = Lit(int32(uint32(s.arena[c]) - 1)) // size is the low bits
	s.wasted++
}

// relocate moves clause c into the new slab unless already moved, and
// returns its new cref. The old header gains the reloced flag and the
// activity word holds the forwarding address, so shared references
// (two watchers, reasons, clause lists) all land on one copy.
func (s *Solver) relocate(c int32, to *[]Lit) int32 {
	h := uint32(s.arena[c])
	if h&hdrReloced != 0 {
		return int32(s.arena[c+1])
	}
	n := int32(len(*to))
	sz := int32(h & hdrSizeMask)
	*to = append(*to, s.arena[c:c+hdrWords+sz]...)
	s.arena[c] = Lit(int32(h | hdrReloced))
	s.arena[c+1] = Lit(n)
	return n
}

// maybeGC compacts the arena when reclaimable holes exceed a quarter of
// it. Must only be called when no clsLits slice is live.
func (s *Solver) maybeGC() {
	if s.wasted*4 > len(s.arena) && s.wasted > 1024 {
		s.garbageCollect()
	}
}

// garbageCollect compacts live clauses into a fresh slab and remaps
// every cref root: watcher lists, reasons of assigned variables, and the
// problem/learnt clause lists. Freed clauses are dropped; shrunk-clause
// tail waste disappears because relocation copies only the current size.
// The slab keeps the old capacity: an exact fit would make the next
// learnt clause copy the whole arena again to grow it.
func (s *Solver) garbageCollect() {
	to := make([]Lit, 0, cap(s.arena))
	for i := range s.watches {
		ws := s.watches[i]
		for j := range ws {
			ws[j].cref = s.relocate(ws[j].cref, &to)
		}
	}
	for _, p := range s.trail {
		if v := p.Var(); s.reason[v] >= 0 {
			s.reason[v] = s.relocate(s.reason[v], &to)
		}
	}
	live := s.clauseRefs[:0]
	for _, c := range s.clauseRefs {
		if !s.clsFreed(c) {
			live = append(live, s.relocate(c, &to))
		}
	}
	s.clauseRefs = live
	live = s.learntRefs[:0]
	for _, c := range s.learntRefs {
		if !s.clsFreed(c) {
			live = append(live, s.relocate(c, &to))
		}
	}
	s.learntRefs = live
	s.arena = to
	s.wasted = 0
	s.stats.ArenaGCs++
}
