package sat

import (
	"encoding/binary"
	"hash"
)

// Digest writes the solver's clause database and root assignment to h,
// exactly as laid out: every live problem and learnt clause in list
// order with its cref, header and literals in arena order, every watch
// list in literal order with its watchers in list order, and the trail.
// Two solvers with equal digests search identically from here on under
// equal heuristics. It is a debugging aid for tests that pin an
// encoding; nothing in the solver calls it. It backtracks to the root
// level first.
func (s *Solver) Digest(h hash.Hash) {
	s.BacktrackToRoot()
	var buf [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	for _, refs := range [2][]int32{s.clauseRefs, s.learntRefs} {
		put(int32(len(refs)))
		for _, c := range refs {
			put(c)
			put(int32(s.clsHeader(c)))
			for _, l := range s.clsLits(c) {
				put(int32(l))
			}
		}
	}
	put(int32(len(s.arena)))
	put(int32(len(s.watches)))
	for _, ws := range s.watches {
		put(int32(len(ws)))
		for _, w := range ws {
			put(w.cref)
			put(int32(w.blocker))
		}
	}
	put(int32(len(s.trail)))
	for _, l := range s.trail {
		put(int32(l))
	}
}
