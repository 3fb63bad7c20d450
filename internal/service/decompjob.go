package service

import (
	"configsynth/internal/core"
	"configsynth/internal/decomp"
)

// solveDecomp is the ModeDecomp arm of solve: the shared decomposing
// solver partitions the topology, solves regions concurrently (answering
// from its region cache where fingerprints match earlier work), and
// stitches a global design. It returns that design, or the conflicting
// threshold kinds with a nil design. Decomp jobs never use what-if
// sessions, bound streaming, or the anytime degrade: regions are
// independent min-cost solves with no global incumbent to fall back on.
// An unsat verdict is deterministic for a given decomposition, so it is
// cacheable even when conservative — the Decomp payload carries the
// conservativeness for the client to judge. A design comes with the memo
// its rendering is kept in (decomp.Result.Rendered).
func (s *Service) solveDecomp(j *Job, res *Result) (*core.Design, []core.ThresholdKind, *decomp.Memo, error) {
	dr, err := s.decomp.Solve(j.ctx, j.prob)
	if dr != nil {
		s.mu.Lock()
		s.totals.Add(dr.Stats)
		s.mu.Unlock()
	}
	if err != nil {
		return nil, nil, nil, err
	}
	res.Decomp = decompJSON(dr)
	return dr.Design, dr.Conflict, dr.Rendered, nil
}

// decompJSON converts a decomposed solve's region breakdown to wire
// form.
func decompJSON(r *decomp.Result) *DecompJSON {
	return &DecompJSON{
		Fallback:       r.Fallback,
		FallbackReason: r.FallbackReason,
		Conservative:   r.Conservative,
		ConflictRegion: r.ConflictRegion,
		Repaired:       r.Repaired,
		Hits:           int(r.Hits),
		Misses:         int(r.Misses),
		Regions:        r.Regions,
	}
}
