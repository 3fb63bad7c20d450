package decomp

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/faults"
	"configsynth/internal/lru"
	"configsynth/internal/netgen"
	"configsynth/internal/spec"
)

// withBudget returns a copy of p at another cost budget.
func withBudget(p *core.Problem, budget int64) *core.Problem {
	q := *p
	q.Thresholds.CostBudget = budget
	return &q
}

// memoCampus is a small campus that decomposes into six subproblems
// and solves in milliseconds.
func memoCampus(t *testing.T, th core.Thresholds) *core.Problem {
	return campus(t, 20, 3, 1, th)
}

// sameAnswer fails unless got reports what want reports: the design,
// the verdict, the repairs, the stats and the region reports, where
// Cached and ElapsedMS (which say where and when the work was done) are
// set aside.
func sameAnswer(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Design, want.Design) {
		t.Errorf("%s: design\n%+v\nwant\n%+v", what, got.Design, want.Design)
	}
	if got.Unsat != want.Unsat || got.Conservative != want.Conservative || got.ConflictRegion != want.ConflictRegion ||
		!slices.Equal(got.Conflict, want.Conflict) || got.Fallback != want.Fallback || got.FallbackReason != want.FallbackReason {
		t.Errorf("%s: verdict unsat=%v conservative=%v region=%q conflict=%v fallback=%v %q, want %v %v %q %v %v %q", what,
			got.Unsat, got.Conservative, got.ConflictRegion, got.Conflict, got.Fallback, got.FallbackReason,
			want.Unsat, want.Conservative, want.ConflictRegion, want.Conflict, want.Fallback, want.FallbackReason)
	}
	if got.Repaired != want.Repaired || got.Stats != want.Stats {
		t.Errorf("%s: repaired %d stats %+v, want %d %+v", what, got.Repaired, got.Stats, want.Repaired, want.Stats)
	}
	norm := func(rs []RegionReport) []RegionReport {
		rs = slices.Clone(rs)
		for i := range rs {
			rs[i].Cached, rs[i].ElapsedMS = false, 0
		}
		return rs
	}
	if g, w := norm(got.Regions), norm(want.Regions); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: regions\n%+v\nwant\n%+v", what, g, w)
	}
}

// allHit fails unless res reports what a pass that found every region
// in the cache reports.
func allHit(t *testing.T, what string, res *Result) {
	t.Helper()
	if res.Hits != uint64(len(res.Regions)) || res.Misses != 0 {
		t.Errorf("%s: hits %d misses %d, want %d and 0", what, res.Hits, res.Misses, len(res.Regions))
	}
	for _, r := range res.Regions {
		if !r.Cached {
			t.Errorf("%s: region %s not reported cached", what, r.Key)
		}
	}
}

func solve(t *testing.T, s *Solver, p *core.Problem) *Result {
	t.Helper()
	res, err := s.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// stitchEntries counts the stored stitches, and checks that an entry
// holds a stitch exactly when its key is a stitch key.
func stitchEntries(t *testing.T, s *Solver) int {
	t.Helper()
	n := 0
	s.cache.Each(func(key string, rr *regionResult) {
		if isStitch := strings.HasPrefix(key, stitchKey); isStitch != (rr.stitch != nil) {
			t.Errorf("entry %.20s: stitch key %v, holds a stitch %v", key, isStitch, rr.stitch != nil)
		}
		if rr.stitch != nil {
			n++
		}
	})
	return n
}

// TestBudgetFreeVariantsMatchAFreshSolver: budget variants B-k … B+k of
// one campus, B its stitched cost, answered from the stored stitch, say
// exactly what a fresh solver says; the ones under B get the stitch
// verdict.
func TestBudgetFreeVariantsMatchAFreshSolver(t *testing.T) {
	th := core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: 10_000}
	p := memoCampus(t, th)
	memo := New(Options{VerifyStitch: true})
	first := solve(t, memo, p)
	if first.Unsat || first.Fallback || first.Hits != 0 {
		t.Fatalf("cold solve: unsat=%v fallback=%v hits=%d", first.Unsat, first.Fallback, first.Hits)
	}
	cost := first.Design.Cost
	for b := cost - 3; b <= cost+3; b++ {
		q := withBudget(p, b)
		got := solve(t, memo, q)
		allHit(t, "memo", got)
		sameAnswer(t, "budget variant", got, solve(t, New(Options{VerifyStitch: true}), q))
		if b < cost && (!got.Unsat || !got.Conservative || got.ConflictRegion != "stitch" ||
			!slices.Equal(got.Conflict, []core.ThresholdKind{core.ThresholdCost}) || got.Design != nil) {
			t.Errorf("budget %d under the stitched cost %d: %+v, want the stitch verdict", b, cost, got)
		}
		if b >= cost && (got.Unsat || got.Design.Cost != cost) {
			t.Errorf("budget %d at or over the stitched cost %d: unsat=%v", b, cost, got.Unsat)
		}
	}
	if n := stitchEntries(t, memo); n != 1 {
		t.Errorf("%d stitches stored for one budget-free problem, want 1", n)
	}
}

// TestBudgetFreeUnsatFamilyIsMemoised: a family whose regions cannot
// meet the sliders is stored like a satisfiable one, and every budget
// variant is reported as a fresh solver reports it.
func TestBudgetFreeUnsatFamilyIsMemoised(t *testing.T) {
	p := memoCampus(t, core.Thresholds{IsolationTenths: 100, UsabilityTenths: 100, CostBudget: 50})
	memo := New(Options{})
	first := solve(t, memo, p)
	if !first.Unsat || first.ConflictRegion == "" || first.ConflictRegion == "stitch" {
		t.Fatalf("cold solve: unsat=%v region=%q, want a region's unsat", first.Unsat, first.ConflictRegion)
	}
	sameAnswer(t, "cold", first, solve(t, New(Options{}), p))
	for _, b := range []int64{0, 50, 1_000_000} {
		q := withBudget(p, b)
		got := solve(t, memo, q)
		allHit(t, "memo", got)
		sameAnswer(t, "unsat variant", got, solve(t, New(Options{}), q))
	}
	if n := stitchEntries(t, memo); n != 1 {
		t.Errorf("%d stitches stored for one unsat family, want 1", n)
	}
}

// TestBudgetFreeFallbackRunsAtEachBudget: a problem that does not
// decompose is solved monolithically at each caller's own budget, even
// when the callers run at once; one budget is satisfiable, the other
// not, and nobody is handed the other's answer.
func TestBudgetFreeFallbackRunsAtEachBudget(t *testing.T) {
	p := netgen.PaperExample()
	s := New(Options{})
	budgets := []int64{p.Thresholds.CostBudget, 0, p.Thresholds.CostBudget, 0}
	results := make([]*Result, len(budgets))
	var wg sync.WaitGroup
	for i, b := range budgets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Solve(context.Background(), withBudget(p, b))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			continue
		}
		if !res.Fallback {
			t.Errorf("budget %d: no fallback", budgets[i])
		}
		if wantSat := budgets[i] > 0; res.Unsat == wantSat || (res.Design != nil && res.Design.Cost > budgets[i]) {
			t.Errorf("budget %d: unsat=%v design=%v, want sat=%v", budgets[i], res.Unsat, res.Design != nil, wantSat)
		}
	}
	if n := stitchEntries(t, s); n != 0 {
		t.Errorf("%d stitches stored for a problem that does not decompose", n)
	}
}

// TestStitchKeyNeverMeetsARegionKey: a problem equal to one of its
// regions' subproblems has that region's fingerprint as its budget-free
// one. Solved around the campus it was cut from, in either order, it
// neither reads the region's entry as a stitch nor has its own solve
// read as the region.
func TestStitchKeyNeverMeetsARegionKey(t *testing.T) {
	p := memoCampus(t, core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: 10_000})
	subs, err := Split(p, Partition(p.Network))
	if err != nil {
		t.Fatal(err)
	}
	region := subs[0]
	if region.Boundary || region.Prob.Thresholds.CostBudget != 0 {
		t.Fatalf("subproblem %s is not a budget-free interior", region.Key)
	}
	q := withBudget(region.Prob, 10_000)
	free := withBudget(q, 0)
	if spec.Fingerprint(free) != spec.Fingerprint(region.Prob) {
		t.Fatal("the region's problem and its subproblem fingerprint apart; the test no longer pins a shared key")
	}

	s := New(Options{})
	for i, step := range []struct {
		name string
		prob *core.Problem
	}{{"region problem", q}, {"campus", p}, {"region problem again", q}, {"campus again", p}} {
		sameAnswer(t, step.name, solve(t, s, step.prob), solve(t, New(Options{}), step.prob))
		if i == 1 {
			rr, ok := s.cache.Get(spec.Fingerprint(region.Prob))
			if !ok || rr.stitch != nil || rr.Design == nil {
				t.Fatalf("region %s entry: found=%v, want the region's own answer", region.Key, ok)
			}
		}
	}
	stitchEntries(t, s)
}

// delaySolves makes every SAT call sleep before it searches, so a solve
// is still decomposing when a test cancels or joins it. It returns the
// restore function and a wait on the solver's cache counters.
func delaySolves(t *testing.T, s *Solver) (restore func(), waitFor func(what string, cond func(lru.Stats) bool)) {
	t.Helper()
	plan, err := faults.Parse(faults.SatSolveDelay + "=1:300ms")
	if err != nil {
		t.Fatal(err)
	}
	restore = faults.Set(plan)
	t.Cleanup(restore)
	return restore, func(what string, cond func(lru.Stats) bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(s.CacheStats()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting until %s: %+v", what, s.CacheStats())
			}
		}
	}
}

// decomposing: the stitch flight has started and so has a region's.
func decomposing(st lru.Stats) bool { return st.Misses >= 2 }

// TestStitchNotStoredByCancelledLeader: a solve cancelled while it
// decomposes stores no stitch, and a budget variant that was waiting on
// its flight decomposes for itself and answers as a fresh solver does.
func TestStitchNotStoredByCancelledLeader(t *testing.T) {
	p := memoCampus(t, core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: 10_000})

	t.Run("alone", func(t *testing.T) {
		solver := New(Options{})
		_, waitFor := delaySolves(t, solver)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() {
			_, err := solver.Solve(ctx, p)
			done <- err
		}()
		waitFor("the solve decomposes", decomposing)
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled solve: err = %v, want context.Canceled", err)
		}
		if n := stitchEntries(t, solver); n != 0 {
			t.Errorf("a cancelled decomposition stored %d stitches", n)
		}
	})

	t.Run("with a waiter", func(t *testing.T) {
		solver := New(Options{})
		restore, waitFor := delaySolves(t, solver)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		leaderErr := make(chan error, 1)
		go func() {
			_, err := solver.Solve(ctx, withBudget(p, 9_000))
			leaderErr <- err
		}()
		waitFor("the leader decomposes", decomposing)
		type outcome struct {
			res *Result
			err error
		}
		waiter := make(chan outcome, 1)
		go func() {
			res, err := solver.Solve(context.Background(), p)
			waiter <- outcome{res, err}
		}()
		waitFor("the waiter joins the stitch flight", func(st lru.Stats) bool { return st.Hits > 0 })
		cancel()
		restore() // the rest runs at full speed

		if err := <-leaderErr; !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled leader: err = %v, want context.Canceled", err)
		}
		var out outcome
		select {
		case out = <-waiter:
		case <-time.After(60 * time.Second):
			t.Fatal("the waiter of a cancelled decomposition hangs")
		}
		if out.err != nil {
			t.Fatalf("the waiter of a cancelled decomposition failed with it: %v", out.err)
		}
		if out.res.Misses == 0 {
			t.Error("the waiter was answered from a stitch; the cancelled leader must store none")
		}
		sameAnswer(t, "waiter", out.res, solve(t, New(Options{}), p))
	})
}

// TestStitchRunsOnceForConcurrentBudgets: two budget variants solved at
// once share one decomposition: the regions miss once, and the variant
// that waited reports what an all-hit pass reports.
func TestStitchRunsOnceForConcurrentBudgets(t *testing.T) {
	p := memoCampus(t, core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: 10_000})
	solver := New(Options{})
	restore, waitFor := delaySolves(t, solver)
	results := make([]*Result, 2)
	var wg sync.WaitGroup
	run := func(i int, budget int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := solver.Solve(context.Background(), withBudget(p, budget))
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	run(0, 10_000)
	waitFor("the first variant decomposes", decomposing)
	run(1, 20_000)
	waitFor("the second joins its stitch flight", func(st lru.Stats) bool { return st.Hits > 0 })
	restore()
	wg.Wait()
	if results[0] == nil || results[1] == nil {
		t.FailNow()
	}

	regions := uint64(len(results[0].Regions))
	if got := results[0].Misses + results[1].Misses; got != regions {
		t.Errorf("region misses across both variants = %d, want %d (one decomposition)", got, regions)
	}
	allHit(t, "the waiting variant", results[1])
	if st := solver.CacheStats(); st.Misses != int64(regions)+1 {
		t.Errorf("cache misses = %d, want %d regions and one stitch", st.Misses, regions)
	}
	sameAnswer(t, "the waiting variant", results[1], solve(t, New(Options{}), withBudget(p, 20_000)))
}

// TestBudgetFreeVariantAllocBudget: a budget-only variant of the
// 100-host campus is a key, a cache read and a budget check. Before the
// stitch was kept, it re-partitioned, re-split and re-stitched the
// campus: 9 445 allocations.
func TestBudgetFreeVariantAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocation")
	}
	if testing.Short() {
		t.Skip("solves the 100-host campus cold")
	}
	p := campus(t, 100, 0, 100, core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: 2000})
	s := New(Options{Workers: 4})
	solve(t, s, p)
	budget := p.Thresholds.CostBudget
	allocs := testing.AllocsPerRun(10, func() {
		budget += 10
		if res := solve(t, s, withBudget(p, budget)); res.Misses != 0 || res.Unsat {
			t.Fatalf("budget %d: misses %d unsat %v, want a stored stitch", budget, res.Misses, res.Unsat)
		}
	})
	if allocs > 1000 {
		t.Errorf("a budget-only variant allocates %.0f times, want at most 1000", allocs)
	}
}

// TestRebuiltCampusVariantAllocBudget: a library caller that builds the
// 100-host campus afresh for each budget variant, as netgen.Campus
// builds it with its links connected out of endpoint order, is held to
// the budget of TestBudgetFreeVariantAllocBudget. While LinkIDs followed
// declaration order, the solver renumbered each such network in sorted
// order and mapped the stored design back onto it: 5 150 allocations.
func TestRebuiltCampusVariantAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocation")
	}
	if testing.Short() {
		t.Skip("solves the 100-host campus cold")
	}
	const runs = 10
	th := core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: 2000}
	s := New(Options{Workers: 4})
	solve(t, s, campus(t, 100, 0, 100, th))
	// AllocsPerRun calls its function once more than runs, to warm up.
	variants := make([]*core.Problem, runs+1)
	for i := range variants {
		th.CostBudget += 10
		variants[i] = campus(t, 100, 0, 100, th)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		p := variants[next]
		next++
		if res := solve(t, s, p); res.Misses != 0 || res.Unsat {
			t.Fatalf("budget %d: misses %d unsat %v, want a stored stitch", p.Thresholds.CostBudget, res.Misses, res.Unsat)
		}
	})
	t.Logf("%.0f allocations per variant", allocs)
	if allocs > 1000 {
		t.Errorf("a rebuilt campus's budget variant allocates %.0f times, want at most 1000", allocs)
	}
}
