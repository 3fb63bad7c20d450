package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"configsynth/internal/decomp"
)

// runDecompJob executes a ModeDecomp job: the shared decomposing solver
// partitions the topology, solves regions concurrently (answering from
// its region cache where fingerprints match earlier work), and stitches
// a global design. The caller (runJob) has already registered the
// bookkeeping defers — active count, retirement, result journaling,
// replay accounting — so this only runs the query and classifies the
// outcome. Decomp jobs never use what-if sessions, bound streaming, or
// the anytime degrade: regions are independent min-cost solves with no
// global incumbent to fall back on.
func (s *Service) runDecompJob(j *Job, start time.Time) {
	res := &Result{Mode: j.Mode, Fingerprint: j.Fingerprint, JobID: j.ID}
	decRes, qerr := s.solveDecomp(j)
	if decRes != nil {
		s.mu.Lock()
		s.totals.Add(decRes.Stats)
		s.mu.Unlock()
	}
	res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000

	switch {
	case qerr == nil && !decRes.Unsat:
		res.Status = "sat"
		res.Objective = float64(decRes.Design.Cost)
		res.Decomp = decompJSON(decRes)
		s.fillDesign(res, j, decRes.Design)
		if decRes.Design.Exact {
			s.cache.put(cacheKey(j.Fingerprint, j.Mode), res)
		} else {
			res.Degraded = true
			res.DegradedReason = "budget"
			s.degraded.Add(1)
		}
		s.completed.Add(1)
		j.finish(res, nil)
	case qerr == nil:
		res.Status = "unsat"
		for _, k := range decRes.Conflict {
			res.Conflict = append(res.Conflict, k.String())
		}
		res.Decomp = decompJSON(decRes)
		// The verdict is deterministic for a given decomposition, so it is
		// cacheable even when conservative — the Decomp payload carries the
		// conservativeness for the client to judge.
		s.cache.put(cacheKey(j.Fingerprint, j.Mode), res)
		s.completed.Add(1)
		j.finish(res, nil)
	case errors.Is(qerr, context.Canceled) || errors.Is(qerr, context.DeadlineExceeded):
		s.canceled.Add(1)
		j.finish(nil, qerr)
	default:
		s.failed.Add(1)
		j.finish(nil, qerr)
	}
}

// solveDecomp runs the decomposed solve under the same panic barrier
// solveJob gives monolithic queries: a panic escaping the partitioner,
// the region DAG, or the stitcher fails the job and keeps the daemon up.
func (s *Service) solveDecomp(j *Job) (res *decomp.Result, qerr error) {
	defer func() {
		if r := recover(); r != nil {
			s.panicsRecovered.Add(1)
			res = nil
			qerr = &SolverPanicError{
				Value:       fmt.Sprint(r),
				Stack:       string(debug.Stack()),
				Fingerprint: j.Fingerprint,
			}
		}
	}()
	return s.decomp.Solve(j.ctx, j.prob)
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
