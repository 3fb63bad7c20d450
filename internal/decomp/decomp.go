package decomp

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/isolation"
	"configsynth/internal/lru"
	"configsynth/internal/portfolio"
	"configsynth/internal/spec"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// Options configure a decomposing solver. The zero value selects
// defaults.
type Options struct {
	// Workers bounds concurrently solved subproblems (default 4).
	Workers int
	// CacheEntries sizes the region result cache (default 512).
	CacheEntries int
	// VerifyStitch re-checks every stitched design against the full
	// monolithic problem with core.Verify before returning it.
	VerifyStitch bool
}

// escalationWidth is the portfolio width for escalated subproblems.
// Every subproblem is first attempted by a single solver on regionFuel
// — cheap, and sufficient for almost all regions — but threshold
// projection occasionally drops a region right on its feasibility phase
// boundary, where a lone CDCL solver can be orders of magnitude slower
// than a diversified race. Such regions spend their fuel and are
// re-solved by escalationWidth diversified racers. On Campus 100/2
// (3.0/4.0/$2 000) region r1 is one: a lone engine did not finish it in
// 60 s, two racers took 1.3 s and four 0.6 s.
const escalationWidth = 4

// regionFuel is the fuel of the first, single-solver attempt at each
// subproblem, counted in SAT decisions (sat.Config.MaxDecisions). A
// region that spends it, or whose cost descent came back truncated,
// escalates to the diversified portfolio, bounded only by the problem's
// probe budget and the caller's context. Counted work, unlike a wall
// clock, stops every attempt at the same point on every machine, so a
// region's cached answer is a function of its fingerprint.
//
// The unit is decisions, not conflicts: a stalled search thrashes in
// decisions and propagations and learns almost nothing. The stalled
// regions of Campus 100/1 (r0), 100/2 (r1) and 150/150 (r0), at 3.0/4.0
// and $20 a host, spend the fuel in 1.2–2.4 s with only 806–1 220
// conflicts, while regions that finish their attempt need up to 61 938.
// In decisions the two separate: of 282 first attempts across the
// decomp, service, experiments and root test suites, every one that
// finished made at most 204 029 decisions (TestDecompDifferential
// h20_d2_s2, r1). The old 10 s clock escalated the same stalled
// regions, and each still ends on the exact optimum.
const regionFuel = 300_000

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 512
	}
	return o
}

// RegionReport describes one subproblem's part in a decomposed solve.
type RegionReport struct {
	// Key names the subproblem ("r<id>" interior, "x<a>-<b>" boundary,
	// "monolithic" on fallback).
	Key string `json:"key"`
	// Boundary marks region-pair subproblems.
	Boundary bool `json:"boundary,omitempty"`
	// Hosts and Flows size the subproblem.
	Hosts int `json:"hosts"`
	Flows int `json:"flows"`
	// Fingerprint is the subproblem cache key (preplacements included).
	Fingerprint string `json:"fingerprint"`
	// Cached is true when the result came from the region cache (or an
	// in-flight solve of the same fingerprint) instead of a fresh solve.
	// A solve answered from a stored stitch reports every region cached.
	Cached bool `json:"cached"`
	// Escalated is true when the single-solver attempt spent its fuel
	// (or came back truncated) and the region was re-solved by the
	// diversified portfolio.
	Escalated bool `json:"escalated,omitempty"`
	// Unsat marks a subproblem with no design at the thresholds.
	Unsat bool `json:"unsat,omitempty"`
	// Cost is the subproblem's marginal deployment cost.
	Cost int64 `json:"cost"`
	// ElapsedMS is the solve time (original time for cache hits).
	ElapsedMS int64 `json:"elapsed_ms"`
}

// Result is the outcome of a decomposed solve.
type Result struct {
	// Design is the stitched global design (nil when Unsat).
	Design *core.Design
	// Unsat is true when no design was found.
	Unsat bool
	// Conflict is the union of threshold kinds implicated across unsat
	// subproblems (or [cost] when the stitch itself busts the budget).
	Conflict []core.ThresholdKind
	// ConflictRegion names the first unsat subproblem, or "stitch" when
	// every region solved but the combined cost exceeded the budget.
	ConflictRegion string
	// Conservative is true when Unsat might be an artifact of the
	// decomposition rather than a property of the problem: per-region
	// threshold projection is sufficient, not necessary, so a region
	// failing its slice does not prove the monolithic problem unsat —
	// except when a region's hard constraints (a subset of the global
	// ones) conflict on their own.
	Conservative bool
	// Fallback is true when the problem was solved monolithically
	// because it did not decompose.
	Fallback bool
	// FallbackReason explains a fallback.
	FallbackReason string
	// Repaired counts devices added by the post-stitch coverage
	// completion (route-ranking divergence between a subnetwork and the
	// global graph can leave a global route uncovered).
	Repaired int
	// Regions reports per-subproblem outcomes, sorted by key.
	Regions []RegionReport
	// Hits and Misses count region-cache outcomes for this solve. A
	// solve answered from a stored stitch, or from a concurrent solve's
	// decomposition, counts every region as a hit, as a pass that found
	// each region in the cache would.
	Hits, Misses uint64
	// Stats aggregates solver model statistics across subproblems.
	Stats core.ModelStats
	// ElapsedMS is the wall-clock time of the whole solve.
	ElapsedMS int64
	// Rendered is set with a Design read from a stitch entry of the
	// region cache: the entry's memo of what a caller derives from that
	// design alone (Memoised). It is created and dropped with the entry,
	// so every budget variant the entry answers shares one value. A
	// fallback's design is the caller's own, and Rendered is nil.
	Rendered *Memo
}

// Memo holds one value derived from a stored stitch's design.
type Memo struct {
	once sync.Once
	v    any
}

// Memoised returns the value m holds, computing it with f on first use;
// every later caller shares it and must only read it. A nil m holds
// nothing, and f computes afresh. f must derive its value from the
// stitched design and from what the budget-free fingerprint covers,
// never from the budget.
func Memoised[T any](m *Memo, f func() T) T {
	if m == nil {
		return f()
	}
	m.once.Do(func() { m.v = f() })
	return m.v.(T)
}

// Solver solves problems by decomposition, keeping a region result
// cache across solves: re-solving an edited problem (or a batch of
// problem variants) only pays for the subproblems whose fingerprints
// changed.
type Solver struct {
	opts Options
	// cache holds proven region results by subproblem fingerprint, and
	// proven stitches by budget-free problem fingerprint (stitchKey).
	// Concurrent solves of one key (common in batch sweeps, where many
	// variants share regions) run once and share the outcome.
	cache *lru.Cache[*regionResult]
}

// New builds a decomposing solver.
func New(opts Options) *Solver {
	opts = opts.withDefaults()
	return &Solver{opts: opts, cache: lru.New[*regionResult](opts.CacheEntries, 0)}
}

// CacheStats snapshots the region cache counters.
func (s *Solver) CacheStats() lru.Stats { return s.cache.Stats() }

// stitchKey prefixes a problem's budget-free fingerprint to key its
// stitch, the root node of its region DAG, in the region cache. Region
// keys are bare hex fingerprints, so neither kind of entry can be read
// as the other.
const stitchKey = "stitch:"

// Solve decomposes, schedules, and stitches: SolveKeyed under p's own
// key.
func (s *Solver) Solve(ctx context.Context, p *core.Problem) (*Result, error) {
	return s.SolveKeyed(ctx, p, spec.KeyOf(p))
}

// SolveKeyed is Solve for a caller that has p's key (spec.KeyOf) in
// hand already. Problems that do not decompose (fewer than two regions,
// flows through no region, or policies coupling subproblems) fall back
// to a monolithic portfolio solve with Fallback set.
//
// No region reads the cost budget, so neither does the stitched and
// completed design: the decomposition runs once per budget-free problem
// and is kept in the region cache like a region, and every call then
// checks the stored design's cost against its own budget.
func (s *Solver) SolveKeyed(ctx context.Context, p *core.Problem, key spec.Key) (*Result, error) {
	start := time.Now()
	if err := p.Validate(); err != nil {
		return nil, err
	}

	// One sorted view of the caller's flows serves the split and the
	// completion, and dies with the call.
	free := *p
	free.Flows = usability.SortedFlows(p.Flows)
	free.Thresholds.CostBudget = 0
	stored, cached, err := s.cache.Do(ctx, stitchKey+key.At(free.Thresholds), func() (*regionResult, error) {
		return s.decompose(ctx, &free)
	}, (*regionResult).exact)
	if errors.Is(err, ErrNotDecomposable) {
		// The fallback reads the budget, so every caller runs its own.
		res, err := s.solveMonolithic(ctx, p, err.Error())
		if res != nil {
			res.ElapsedMS = time.Since(start).Milliseconds()
		}
		return res, err
	}
	if err != nil {
		return nil, err
	}

	res := *stored.stitch
	if cached {
		// What a pass that found every region in the cache reports.
		res.Regions = slices.Clone(res.Regions)
		for i := range res.Regions {
			res.Regions[i].Cached = true
		}
		res.Hits, res.Misses = uint64(len(res.Regions)), 0
	}
	if res.Design != nil && res.Design.Cost > p.Thresholds.CostBudget {
		// Every region fit its slice, but the union is over budget. This
		// is a decomposition artifact (regions minimized cost locally, not
		// jointly), so it is always conservative.
		res.Design = nil
		res.Unsat = true
		res.Conservative = true
		res.Conflict = []core.ThresholdKind{core.ThresholdCost}
		res.ConflictRegion = "stitch"
	}
	if res.Design != nil {
		res.Rendered = &stored.rendered
	}
	if res.Design != nil && s.opts.VerifyStitch {
		vr, err := core.Verify(p, res.Design)
		if err != nil {
			return nil, err
		}
		if !vr.OK() {
			return nil, fmt.Errorf("decomp: stitched design failed verification: %v", vr.Violations)
		}
	}
	res.ElapsedMS = time.Since(start).Milliseconds()
	return &res, nil
}

// decompose is the budget-free part of a solve, run on p with its budget
// zeroed: partition, split, the region DAG, the stitch and the placement
// completion. Its entry holds the outcome as Solve reports it before the
// budget check, and the region cache keeps it only if every region's
// answer was exact.
func (s *Solver) decompose(ctx context.Context, p *core.Problem) (*regionResult, error) {
	// One table of the global network's routes serves the whole request:
	// the splitter reads it to cut out each subproblem's subgraph, the
	// placement completion reads it again after the stitch.
	routes := topology.NewRouteTable(p.Network, p.Options.Routes)
	regions := Partition(p.Network)
	if len(regions) < 2 {
		return nil, fmt.Errorf("%w: partition found %d region(s)", ErrNotDecomposable, len(regions))
	}
	subs, err := split(p, regions, routes)
	if err != nil {
		return nil, err
	}

	outcomes, err := s.runDAG(ctx, subs)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	exact := true
	for _, out := range outcomes {
		if out.cached {
			res.Hits++
		} else {
			res.Misses++
		}
		res.Stats.Add(out.res.Stats)
		exact = exact && out.res.exact()
	}

	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out := outcomes[k]
		res.Regions = append(res.Regions, RegionReport{
			Key:         out.sub.Key,
			Boundary:    out.sub.Boundary,
			Hosts:       len(out.sub.Prob.Network.Hosts()),
			Flows:       len(out.sub.Prob.Flows),
			Fingerprint: out.fp,
			Cached:      out.cached,
			Escalated:   out.res.Escalated,
			Unsat:       out.res.Unsat,
			Cost:        out.res.Cost,
			ElapsedMS:   out.res.ElapsedMS,
		})
	}

	// Any unsat subproblem means no stitched design. The verdict is
	// conservative unless some region's hard constraints conflict on
	// their own (an empty unsat core): those constraints are a subset of
	// the global ones, so that conflict exists monolithically too.
	hard := false
	seenKind := make(map[core.ThresholdKind]bool)
	for _, k := range keys {
		out := outcomes[k]
		if !out.res.Unsat {
			continue
		}
		if res.ConflictRegion == "" {
			res.ConflictRegion = out.sub.Key
		}
		hard = hard || out.res.HardUnsat
		for _, kind := range out.res.Conflict {
			if !seenKind[kind] {
				seenKind[kind] = true
				res.Conflict = append(res.Conflict, kind)
			}
		}
	}
	if res.ConflictRegion != "" {
		res.Unsat = true
		res.Conservative = !hard
		sort.Slice(res.Conflict, func(i, j int) bool { return res.Conflict[i] < res.Conflict[j] })
		// The entry answers unsat as a region does, and is an exact
		// answer, so kept, only if every region's answer was.
		return &regionResult{stitch: res, Unsat: exact, Conflict: res.Conflict, HardUnsat: exact && len(res.Conflict) == 0}, nil
	}

	design, err := s.stitch(p, outcomes)
	if err != nil {
		return nil, err
	}
	// Subnetworks can rank routes differently from the global graph once
	// enumeration hits its search cap, so the stitched union may leave a
	// globally enumerated route uncovered. Complete the placements under
	// the global route set before the budget is judged.
	if res.Repaired, err = core.CompletePlacements(p, design, routes); err != nil {
		return nil, err
	}
	// The stitched design is exact when every region's was.
	res.Design = design
	return &regionResult{stitch: res, Design: design}, nil
}

// solveMonolithic is the fallback path for undecomposable problems. A
// plain check never races, so the portfolio is one solver wide.
func (s *Solver) solveMonolithic(ctx context.Context, p *core.Problem, reason string) (*Result, error) {
	start := time.Now()
	solver, err := portfolio.New(p, 1)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Fallback:       true,
		FallbackReason: reason,
		Misses:         1,
	}
	design, err := solver.Run(ctx, core.Query{Thresholds: p.Thresholds})
	res.Stats = solver.Stats()
	elapsed := time.Since(start).Milliseconds()
	res.Regions = []RegionReport{{
		Key:       "monolithic",
		Hosts:     len(p.Network.Hosts()),
		Flows:     len(p.Flows),
		ElapsedMS: elapsed,
	}}
	switch {
	case err == nil:
		res.Design = design
		res.Regions[0].Cost = design.Cost
	case core.IsUnsat(err):
		var tc *core.ThresholdConflictError
		errors.As(err, &tc)
		res.Unsat = true
		res.Conflict = tc.Core
		res.ConflictRegion = "monolithic"
		res.Regions[0].Unsat = true
	default:
		return nil, err
	}
	return res, nil
}

// stitch merges the subproblem designs into one global design: flow
// patterns map through each subproblem's node remap; placements map to
// global links and are deduplicated (a boundary keeping an interior's
// preplaced device re-reports the same global placement); cost,
// isolation, and usability are recomputed globally (core.ScoreDesign).
func (s *Solver) stitch(p *core.Problem, outcomes map[string]*subOutcome) (*core.Design, error) {
	d := &core.Design{
		FlowPatterns: make(map[usability.Flow]isolation.PatternID, len(p.Flows)),
		Placements:   make(map[topology.LinkID][]isolation.DeviceID),
		Exact:        true,
	}
	placed := make(map[globalPlacement]bool)
	for _, out := range outcomes {
		design := out.res.Design
		if design == nil {
			return nil, fmt.Errorf("decomp: subproblem %s has no design to stitch", out.sub.Key)
		}
		if !design.Exact {
			d.Exact = false
		}
		toGlobal := out.sub.ToGlobalNode
		for f, pid := range design.FlowPatterns {
			gf := usability.Flow{Src: toGlobal[f.Src], Dst: toGlobal[f.Dst], Svc: f.Svc}
			d.FlowPatterns[gf] = pid
		}
		for link, devs := range design.Placements {
			l, ok := out.sub.Prob.Network.Link(link)
			if !ok {
				return nil, fmt.Errorf("decomp: subproblem %s places on unknown link %d", out.sub.Key, link)
			}
			ga, gb := toGlobal[l.A], toGlobal[l.B]
			if ga > gb {
				ga, gb = gb, ga
			}
			glink, ok := p.Network.LinkBetween(ga, gb)
			if !ok {
				return nil, fmt.Errorf("decomp: subproblem %s link %d-%d missing globally", out.sub.Key, ga, gb)
			}
			for _, dev := range devs {
				gp := globalPlacement{A: ga, B: gb, Dev: dev}
				if placed[gp] {
					continue
				}
				placed[gp] = true
				d.Placements[glink] = append(d.Placements[glink], dev)
			}
		}
	}
	for _, devs := range d.Placements {
		sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	}

	// Global cost over the deduplicated union, at full device cost —
	// preplacements were a marginal-cost device within a subproblem, but
	// globally every placed device is paid for exactly once — and global
	// scores over the full flow set.
	if err := core.ScoreDesign(p, d); err != nil {
		return nil, fmt.Errorf("decomp: stitched design: %w", err)
	}
	return d, nil
}
