package decomp

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/isolation"
	"configsynth/internal/portfolio"
	"configsynth/internal/spec"
	"configsynth/internal/topology"
)

// regionResult is the cached outcome of one subproblem solve. Designs
// are stored in the subproblem's local ID space; the stitcher maps them
// back through ToGlobalNode. Only proven results are cached (exact
// designs and decided unsats), so a cache hit is as trustworthy as a
// fresh solve.
type regionResult struct {
	// Design is the cost-minimal local design (nil on unsat).
	Design *core.Design
	// Unsat is true when the subproblem has no design at the thresholds.
	Unsat bool
	// Conflict is the unsat core over threshold kinds (empty = hard
	// constraints conflict, a genuine global unsat).
	Conflict []core.ThresholdKind
	// HardUnsat is true when the unsat core is empty: the subproblem's
	// hard constraints — a subset of the global ones — conflict on their
	// own, so the global problem is unsat too, not just this cut of it.
	HardUnsat bool
	// Cost is the marginal deployment cost of Design.
	Cost int64
	// Stats are the solver model statistics for the subproblem,
	// accumulated across the bounded attempt and any escalation.
	Stats core.ModelStats
	// Escalated is true when the single-solver attempt spent its
	// regionFuel (or had its cost descent truncated) and the subproblem
	// was re-solved by the diversified portfolio.
	Escalated bool
	// ElapsedMS is the original solve time (a cache hit reports the
	// cached value, not ~0, so reports stay meaningful).
	ElapsedMS int64
	// stitch is set on the entry of a problem's stitch, the root of its
	// region DAG: the budget-free outcome Solve checks every budget
	// against. Its Design is the stitched design, and its Unsat is set
	// only when every region's answer was exact. rendered is the
	// stitch's memo (Result.Rendered).
	stitch   *Result
	rendered Memo
}

// exact is the cache's keep rule: a proven answer (an exact design or a
// decided unsat).
func (r *regionResult) exact() bool { return r.Unsat || (r.Design != nil && r.Design.Exact) }

// subOutcome pairs a subproblem with its (possibly cached) result.
type subOutcome struct {
	sub    *Subproblem
	res    *regionResult
	cached bool
	fp     string
}

// runDAG solves the subproblems in dependency order: interiors have no
// dependencies and start immediately; a boundary starts once its
// endpoint interiors finish (their placements become its
// preplacements). Ready subproblems run concurrently up to
// opts.Workers. The first error cancels the rest; unsat results are not
// errors — dependents of an unsat interior still run (without
// preplacements from it) so the caller sees the full unsat picture.
func (s *Solver) runDAG(ctx context.Context, subs []*Subproblem) (map[string]*subOutcome, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	byKey := make(map[string]*Subproblem, len(subs))
	waiting := make(map[string]int, len(subs))
	dependents := make(map[string][]string)
	for _, sub := range subs {
		byKey[sub.Key] = sub
		waiting[sub.Key] = len(sub.Deps)
		for _, d := range sub.Deps {
			dependents[d] = append(dependents[d], sub.Key)
		}
	}

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		outcomes = make(map[string]*subOutcome, len(subs))
		firstErr error
	)
	sem := make(chan struct{}, s.opts.Workers)

	var launch func(key string)
	finish := func(key string, out *subOutcome, err error) {
		mu.Lock()
		if err != nil && firstErr == nil {
			firstErr = err
			cancel()
		}
		if out != nil {
			outcomes[key] = out
		}
		var ready []string
		for _, dep := range dependents[key] {
			waiting[dep]--
			if waiting[dep] == 0 {
				ready = append(ready, dep)
			}
		}
		mu.Unlock()
		for _, r := range ready {
			launch(r)
		}
	}
	launch = func(key string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				out *subOutcome
				err error
			)
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("decomp: subproblem %s panicked: %v\n%s", key, p, debug.Stack())
					out = nil
				}
				finish(key, out, err)
			}()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				err = ctx.Err()
				return
			}
			if ctx.Err() != nil {
				err = ctx.Err()
				return
			}
			out, err = s.solveSub(ctx, byKey[key], outcomesSnapshot(&mu, outcomes, byKey[key].Deps))
		}()
	}

	for _, sub := range subs {
		if len(sub.Deps) == 0 {
			launch(sub.Key)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return outcomes, nil
}

// outcomesSnapshot copies the dependency outcomes a subproblem needs,
// under the scheduler lock (its deps have finished, but unrelated
// goroutines still write the map).
func outcomesSnapshot(mu *sync.Mutex, outcomes map[string]*subOutcome, deps []string) map[string]*subOutcome {
	if len(deps) == 0 {
		return nil
	}
	mu.Lock()
	defer mu.Unlock()
	snap := make(map[string]*subOutcome, len(deps))
	for _, d := range deps {
		if o, ok := outcomes[d]; ok {
			snap[d] = o
		}
	}
	return snap
}

// solveSub solves one subproblem: inject dependency placements as
// preplacements, fingerprint, and answer from the region cache or a
// fresh MinCost solve. Preplacements are applied before fingerprinting,
// so a boundary's cache key covers its interiors' designs — an edit
// that changes an interior automatically misses on its boundaries too.
//
// A fresh solve is attempted single-solver first, on regionFuel
// decisions. Most regions finish there in a fraction of the portfolio's
// cost (a K-wide portfolio encodes the model once and clones it K
// times, and pays one canonical extraction on top of the race). The
// rare region that sits on its projected thresholds' feasibility
// boundary can stall a single search for minutes; when the attempt
// spends its fuel — or returns a truncated, inexact descent — the
// region is re-solved by escalationWidth diversified racers. A
// definitive answer from the attempt (an exact design or an UNSAT
// proof) is final and never escalates. The only clock is the caller's
// context, whose expiry fails the solve.
func (s *Solver) solveSub(ctx context.Context, sub *Subproblem, deps map[string]*subOutcome) (*subOutcome, error) {
	prob := sub.Prob
	if len(deps) > 0 {
		pre := preplacementsFrom(sub, deps)
		if len(pre) > 0 {
			clone := *prob
			clone.Preplaced = pre
			prob = &clone
		}
	}
	fp := spec.Fingerprint(prob)

	res, cached, err := s.cache.Do(ctx, fp, func() (*regionResult, error) {
		start := time.Now()
		rr := &regionResult{}
		// run overwrites rr's outcome fields from one solve of p and
		// accumulates its stats.
		run := func(p *core.Problem, width int) error {
			solver, err := portfolio.New(p, width)
			if err != nil {
				return err
			}
			design, err := solver.Run(ctx, core.Query{Optimise: core.ThresholdCost, Thresholds: p.Thresholds})
			rr.Stats.Add(solver.Stats())
			switch {
			case err == nil:
				rr.Design, rr.Cost = design, design.Cost
				rr.Unsat, rr.Conflict, rr.HardUnsat = false, nil, false
			case core.IsUnsat(err):
				var tc *core.ThresholdConflictError
				if errors.As(err, &tc) {
					rr.Conflict = tc.Core
					rr.HardUnsat = len(tc.Core) == 0
				}
				rr.Design, rr.Cost = nil, 0
				rr.Unsat = true
			default:
				return err
			}
			return nil
		}

		fueled := *prob
		fueled.Options.Solver.MaxDecisions = regionFuel
		err := run(&fueled, 1)
		if rr.Stats.Decisions >= regionFuel || errors.Is(err, core.ErrBudgetExceeded) || err == nil && !rr.exact() {
			// Spent fuel, a blown problem-level conflict budget or a
			// truncated descent: try harder.
			rr.Escalated = true
			err = run(prob, escalationWidth)
		}
		if err != nil {
			return nil, fmt.Errorf("decomp: subproblem %s: %w", sub.Key, err)
		}
		rr.ElapsedMS = time.Since(start).Milliseconds()
		return rr, nil
	}, (*regionResult).exact)
	if err != nil {
		return nil, err
	}
	return &subOutcome{sub: sub, res: res, cached: cached, fp: fp}, nil
}

// preplacementsFrom converts dependency designs into preplacements on
// the subproblem's links: every device an interior placed on a link
// that also exists in this subproblem's subgraph is already paid for
// and pinned. Deterministic order keeps the fingerprint stable.
func preplacementsFrom(sub *Subproblem, deps map[string]*subOutcome) []core.Preplacement {
	// Local (sub) endpoints for each global link present in the subgraph.
	type gpair struct{ a, b topology.NodeID }
	localOf := make(map[gpair][2]topology.NodeID)
	for _, l := range sub.Prob.Network.Links() {
		ga, gb := sub.ToGlobalNode[l.A], sub.ToGlobalNode[l.B]
		la, lb := l.A, l.B
		if ga > gb {
			ga, gb = gb, ga
			la, lb = lb, la
		}
		localOf[gpair{ga, gb}] = [2]topology.NodeID{la, lb}
	}

	keys := make([]string, 0, len(deps))
	for k := range deps {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var pre []core.Preplacement
	seen := make(map[core.Preplacement]bool)
	for _, k := range keys {
		dep := deps[k]
		if dep.res == nil || dep.res.Design == nil {
			continue
		}
		for link, devs := range dep.res.Design.Placements {
			l, ok := dep.sub.Prob.Network.Link(link)
			if !ok {
				continue
			}
			ga, gb := dep.sub.ToGlobalNode[l.A], dep.sub.ToGlobalNode[l.B]
			if ga > gb {
				ga, gb = gb, ga
			}
			loc, ok := localOf[gpair{ga, gb}]
			if !ok {
				continue
			}
			for _, dev := range devs {
				pp := core.Preplacement{A: loc[0], B: loc[1], Dev: dev}
				if !seen[pp] {
					seen[pp] = true
					pre = append(pre, pp)
				}
			}
		}
	}
	sort.Slice(pre, func(i, j int) bool {
		if pre[i].A != pre[j].A {
			return pre[i].A < pre[j].A
		}
		if pre[i].B != pre[j].B {
			return pre[i].B < pre[j].B
		}
		return pre[i].Dev < pre[j].Dev
	})
	return pre
}

// globalPlacement is a stitched placement keyed by global endpoints.
type globalPlacement struct {
	A, B topology.NodeID
	Dev  isolation.DeviceID
}
