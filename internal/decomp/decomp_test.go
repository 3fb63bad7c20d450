package decomp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/faults"
	"configsynth/internal/isolation"
	"configsynth/internal/lru"
	"configsynth/internal/netgen"
	"configsynth/internal/policy"
	"configsynth/internal/portfolio"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

func campus(t *testing.T, hosts, depts int, seed int64, th core.Thresholds) *core.Problem {
	t.Helper()
	p, err := netgen.Campus(netgen.CampusConfig{
		Hosts:       hosts,
		Departments: depts,
		Seed:        seed,
		Thresholds:  th,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPartitionCampus(t *testing.T) {
	p := campus(t, 40, 4, 1, core.Thresholds{})
	regions := Partition(p.Network, PartitionOptions{})
	if len(regions) != 4 {
		t.Fatalf("regions = %d, want 4 (one per department)", len(regions))
	}
	total := 0
	seen := make(map[topology.NodeID]bool)
	for i, r := range regions {
		if r.ID != i {
			t.Errorf("region %d has ID %d", i, r.ID)
		}
		if len(r.Hosts) == 0 || len(r.Routers) == 0 {
			t.Errorf("region %d empty: %+v", i, r)
		}
		for _, h := range r.Hosts {
			if seen[h] {
				t.Errorf("host %d in two regions", h)
			}
			seen[h] = true
		}
		total += len(r.Hosts)
	}
	if total != 40 {
		t.Errorf("regions cover %d hosts, want 40", total)
	}
}

func TestPartitionMergesSmallRegions(t *testing.T) {
	// Two departments of 1 host each cannot stand alone under the
	// default MinRegionHosts=2 floor.
	net := topology.New()
	b := net.AddRouter("b")
	var hosts []topology.NodeID
	for i := 0; i < 3; i++ {
		r := net.AddRouter(fmt.Sprintf("r%d", i))
		if _, err := net.Connect(r, b); err != nil {
			t.Fatal(err)
		}
		h := net.AddHost(fmt.Sprintf("h%d", i))
		if _, err := net.Connect(h, r); err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	regions := Partition(net, PartitionOptions{})
	for _, r := range regions {
		if len(r.Hosts) < 2 && len(regions) > 1 {
			t.Errorf("region below host floor survived: %+v", r)
		}
	}
	if got := Partition(net, PartitionOptions{MaxRegions: 1}); len(got) != 1 {
		t.Errorf("MaxRegions=1 produced %d regions", len(got))
	}
	_ = hosts
}

func TestSplitStructure(t *testing.T) {
	p := campus(t, 40, 4, 1, core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: 500})
	regions := Partition(p.Network, PartitionOptions{})
	subs, err := Split(p, regions)
	if err != nil {
		t.Fatal(err)
	}
	flows := 0
	interiors, boundaries := 0, 0
	for _, sub := range subs {
		flows += len(sub.Prob.Flows)
		if sub.Boundary {
			boundaries++
			if len(sub.Deps) != 2 {
				t.Errorf("boundary %s has deps %v, want its two interiors", sub.Key, sub.Deps)
			}
		} else {
			interiors++
			if len(sub.Deps) != 0 {
				t.Errorf("interior %s has deps %v", sub.Key, sub.Deps)
			}
		}
		if err := sub.Prob.Validate(); err != nil {
			t.Errorf("subproblem %s invalid: %v", sub.Key, err)
		}
		if sub.Prob.Thresholds.CostBudget != 0 {
			t.Errorf("subproblem %s carries a cost budget; regions must be budget-agnostic", sub.Key)
		}
		// The remap must be monotone: local order = global order.
		for i := 1; i < len(sub.ToGlobalNode); i++ {
			if sub.ToGlobalNode[i-1] >= sub.ToGlobalNode[i] {
				t.Fatalf("subproblem %s node remap not monotone", sub.Key)
			}
		}
	}
	if interiors != 4 {
		t.Errorf("interiors = %d, want 4", interiors)
	}
	if boundaries == 0 {
		t.Error("campus cross-department flows produced no boundary subproblems")
	}
	if flows != len(p.Flows) {
		t.Errorf("subproblems carry %d flows, global problem has %d", flows, len(p.Flows))
	}
}

func TestSplitRejectsCrossRegionImplication(t *testing.T) {
	p := campus(t, 20, 2, 1, core.Thresholds{})
	regions := Partition(p.Network, PartitionOptions{})
	if len(regions) != 2 {
		t.Fatalf("regions = %d, want 2", len(regions))
	}
	// An implication between a flow of region 0 and a flow of region 1.
	var f0, f1 usability.Flow
	found0, found1 := false, false
	inRegion := func(reg Region, h topology.NodeID) bool {
		for _, rh := range reg.Hosts {
			if rh == h {
				return true
			}
		}
		return false
	}
	for _, f := range p.Flows {
		if !found0 && inRegion(regions[0], f.Src) && inRegion(regions[0], f.Dst) {
			f0, found0 = f, true
		}
		if !found1 && inRegion(regions[1], f.Src) && inRegion(regions[1], f.Dst) {
			f1, found1 = f, true
		}
	}
	if !found0 || !found1 {
		t.Fatal("no intra-region flows found")
	}
	pol := policy.NewSet()
	pol.Add(policy.Implication{If: f0, IfPattern: isolation.TrustedComm, Then: f1, ThenPattern: isolation.TrustedComm})
	p.Policies = pol
	if _, err := Split(p, regions); !errors.Is(err, ErrNotDecomposable) {
		t.Fatalf("got %v, want ErrNotDecomposable", err)
	}
}

// TestDecompDifferential is the differential harness of the issue: on a
// seeded sweep of campus instances, a decomposed+stitched solve must
// agree with the monolithic encoding — SAT designs verify against the
// full problem (VerifyStitch wires core.Verify in), and non-conservative
// UNSATs must be monolithically UNSAT too.
func TestDecompDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	type tc struct {
		hosts, depts int
		seed         int64
		th           core.Thresholds
		// mono additionally runs the monolithic solver for a live
		// feasibility comparison. Where it is false (the 50-host case,
		// where a monolithic solve takes minutes), agreement rests on the
		// core.Verify oracle alone: a stitched design verifying against
		// the full problem is a constructive proof that the monolithic
		// encoding is satisfiable.
		mono bool
	}
	cases := []tc{
		{20, 2, 1, core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: 400}, true},
		{20, 2, 2, core.Thresholds{IsolationTenths: 35, UsabilityTenths: 45, CostBudget: 400}, true},
		{20, 3, 3, core.Thresholds{IsolationTenths: 30, UsabilityTenths: 50, CostBudget: 400}, true},
		{50, 6, 4, core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: 900}, false},
		// Impossible slider mix: both sides must agree on UNSAT via the
		// hard-or-threshold route.
		{20, 2, 5, core.Thresholds{IsolationTenths: 100, UsabilityTenths: 100, CostBudget: 1}, true},
	}
	sat := 0
	for _, c := range cases {
		t.Run(fmt.Sprintf("h%d_d%d_s%d", c.hosts, c.depts, c.seed), func(t *testing.T) {
			p := campus(t, c.hosts, c.depts, c.seed, c.th)
			solver := New(Options{VerifyStitch: true})
			res, err := solver.Solve(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Fallback {
				t.Fatalf("campus instance unexpectedly fell back: %s", res.FallbackReason)
			}

			monoSat := false
			if c.mono {
				mono, err := portfolio.New(p, 2)
				if err != nil {
					t.Fatal(err)
				}
				_, monoErr := mono.SolveContext(context.Background())
				monoSat = monoErr == nil
				if monoErr != nil && !core.IsUnsat(monoErr) {
					t.Fatal(monoErr)
				}
			}

			if !res.Unsat {
				sat++
				// VerifyStitch already ran core.Verify against the full
				// problem; a SAT decomposition must be monolithically SAT.
				if c.mono && !monoSat {
					t.Fatal("decomposed SAT but monolithic UNSAT")
				}
				if res.Design.Cost > c.th.CostBudget {
					t.Fatalf("stitched cost %d over budget %d", res.Design.Cost, c.th.CostBudget)
				}
			} else if c.mono && !res.Conservative && monoSat {
				t.Fatalf("decomposition claimed definite UNSAT (region %s, %v) but monolithic is SAT",
					res.ConflictRegion, res.Conflict)
			}
			// A region is hard-unsat — which drops Conservative — only on the
			// empty core of a query at the region's own thresholds; a core
			// that lost its threshold kinds would pass for one.
			solver.cache.Each(func(fp string, rr *regionResult) {
				if rr.HardUnsat != (rr.Unsat && len(rr.Conflict) == 0) {
					t.Errorf("region %.12s: HardUnsat=%v with unsat=%v core=%v", fp, rr.HardUnsat, rr.Unsat, rr.Conflict)
				}
			})
			if res.Unsat && c.th.IsolationTenths == 100 && !res.Conservative {
				t.Errorf("a pure slider conflict (%v in %s) was reported as definite", res.Conflict, res.ConflictRegion)
			}
		})
	}
	if sat == 0 {
		t.Error("differential sweep never exercised the SAT path; loosen the thresholds")
	}
}

// triCampus builds a hand-rolled three-department campus whose exact
// link structure the dirty-region test can vary: extraHost grows
// department 0 by one host (an edit local to region 0).
func triCampus(t *testing.T, extraHost bool) *core.Problem {
	t.Helper()
	net := topology.New()
	b1 := net.AddRouter("b1")
	b2 := net.AddRouter("b2")
	if _, err := net.Connect(b1, b2); err != nil {
		t.Fatal(err)
	}
	backbone := []topology.NodeID{b1, b2}
	var dept [3][]topology.NodeID
	var deptRouter [3]topology.NodeID
	hostN := 0
	for d := 0; d < 3; d++ {
		r := net.AddRouter(fmt.Sprintf("d%d", d))
		deptRouter[d] = r
		if _, err := net.Connect(r, backbone[d%2]); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			hostN++
			h := net.AddHost(fmt.Sprintf("h%d", hostN))
			if _, err := net.Connect(h, r); err != nil {
				t.Fatal(err)
			}
			dept[d] = append(dept[d], h)
		}
	}
	if extraHost {
		// The edit: one new host and link appended to department 0 —
		// topology edits are append-only, so node and link IDs of the
		// untouched departments stay put.
		h := net.AddHost("h-new")
		if _, err := net.Connect(h, deptRouter[0]); err != nil {
			t.Fatal(err)
		}
		dept[0] = append(dept[0], h)
	}
	var flows []usability.Flow
	reqs := usability.NewRequirements()
	for d := 0; d < 3; d++ {
		for _, src := range dept[d] {
			for _, dst := range dept[d] {
				if src != dst {
					flows = append(flows, usability.Flow{Src: src, Dst: dst, Svc: 1})
				}
			}
		}
	}
	// Cross traffic between departments 0-1 and 1-2 only: region 2's
	// interior and the x1-2 boundary must be untouched by a region-0
	// edit.
	flows = append(flows,
		usability.Flow{Src: dept[0][0], Dst: dept[1][0], Svc: 1},
		usability.Flow{Src: dept[1][1], Dst: dept[2][0], Svc: 1},
	)
	reqs.Require(usability.Flow{Src: dept[1][1], Dst: dept[2][0], Svc: 1})
	return &core.Problem{
		Network:      net,
		Catalog:      isolation.DefaultCatalog(),
		Flows:        flows,
		Requirements: reqs,
		Thresholds:   core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: 300},
		Options: core.Options{
			Routes: topology.RouteOptions{MaxRoutes: 4, MaxHops: 10},
		},
	}
}

func reportByKey(res *Result) map[string]RegionReport {
	m := make(map[string]RegionReport, len(res.Regions))
	for _, r := range res.Regions {
		m[r.Key] = r
	}
	return m
}

// TestDirtyRegionInvalidation: after editing one region, a re-solve
// through the same solver re-solves only that region (and any boundary
// that depends on it); every untouched region answers from the cache.
func TestDirtyRegionInvalidation(t *testing.T) {
	solver := New(Options{VerifyStitch: true})

	res1, err := solver.Solve(context.Background(), triCampus(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Unsat {
		t.Fatalf("baseline unsat: region %s %v", res1.ConflictRegion, res1.Conflict)
	}
	if res1.Hits != 0 {
		t.Errorf("cold solve reported %d hits", res1.Hits)
	}

	// Identical problem again: every subproblem is a cache hit.
	res2, err := solver.Solve(context.Background(), triCampus(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Misses != 0 {
		t.Errorf("identical re-solve missed %d times", res2.Misses)
	}
	if res2.Hits != uint64(len(res2.Regions)) {
		t.Errorf("identical re-solve: hits = %d, want %d", res2.Hits, len(res2.Regions))
	}

	// Edit region 0 (grow it by a host+link): regions 1 and 2 and the
	// 1-2 boundary must stay cached; region 0 must re-solve.
	res3, err := solver.Solve(context.Background(), triCampus(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if res3.Unsat {
		t.Fatalf("edited problem unsat: region %s %v", res3.ConflictRegion, res3.Conflict)
	}
	by := reportByKey(res3)
	mustCached := func(key string) {
		t.Helper()
		r, ok := by[key]
		if !ok {
			t.Fatalf("no report for %s (have %v)", key, res3.Regions)
		}
		if !r.Cached {
			t.Errorf("untouched subproblem %s re-solved after a region-0 edit", key)
		}
	}
	mustFresh := func(key string) {
		t.Helper()
		r, ok := by[key]
		if !ok {
			t.Fatalf("no report for %s (have %v)", key, res3.Regions)
		}
		if r.Cached {
			t.Errorf("edited subproblem %s served from cache", key)
		}
	}
	mustFresh("r0")
	mustCached("r1")
	mustCached("r2")
	mustCached("x1-2")
}

func TestMonolithicFallback(t *testing.T) {
	// The paper example's mesh has host-bearing routers all linked to
	// each other: one region, so Solve must fall back and still answer.
	p := netgen.PaperExample()
	solver := New(Options{})
	res, err := solver.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Fatal("expected monolithic fallback")
	}
	if res.Unsat || res.Design == nil {
		t.Fatalf("paper example must be satisfiable, got unsat=%v", res.Unsat)
	}
	if len(res.Regions) != 1 || res.Regions[0].Key != "monolithic" {
		t.Errorf("fallback regions = %+v", res.Regions)
	}
	if vr, err := core.Verify(p, res.Design); err != nil || !vr.OK() {
		t.Fatalf("fallback design failed verification: %v %v", err, vr.Violations)
	}
}

// TestRegionBudgetEscalation: on Campus 100/2 region r1 sits on its
// projected thresholds' feasibility boundary, where a lone solver
// stalls. Its first attempt spends regionFuel and escalates to the
// diversified portfolio, which lands on the exact optimum; every other
// region answers on its fuel.
func TestRegionBudgetEscalation(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a 100-host campus with a stalling region")
	}
	p := campus(t, 100, 0, 2, core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: 2000})
	res, err := New(Options{VerifyStitch: true}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unsat || res.Fallback || res.Design == nil {
		t.Fatalf("unsat=%v fallback=%v; want a stitched design", res.Unsat, res.Fallback)
	}
	if !res.Design.Exact {
		t.Error("stitched design is not exact; escalation must preserve exactness")
	}
	var escalated []string
	for _, r := range res.Regions {
		if r.Escalated {
			escalated = append(escalated, r.Key)
		}
	}
	if !slices.Equal(escalated, []string{"r1"}) {
		t.Errorf("escalated regions %v, want [r1]", escalated)
	}
	if res.Stats.Decisions < regionFuel {
		t.Errorf("Stats.Decisions = %d, below the %d decisions r1 spent before escalating", res.Stats.Decisions, regionFuel)
	}
}

// TestRegionVerdictIgnoresLoad: a region's answer is a function of its
// fingerprint, not of how busy the machine is. The 40-host campus of the
// service's conservative-unsat test is solved once plainly and once on
// one thread shared with busy goroutines, where each region takes
// several times as long; both give the same design, the same solver
// counters and no escalation.
func TestRegionVerdictIgnoresLoad(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("solves a 40-host campus twice, once on a loaded thread")
	}
	p := campus(t, 40, 4, 1, core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: 800})
	solve := func() *Result {
		t.Helper()
		res, err := New(Options{}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Unsat || res.Fallback {
			t.Fatalf("unsat=%v fallback=%v; want a stitched design", res.Unsat, res.Fallback)
		}
		for _, r := range res.Regions {
			if r.Escalated {
				t.Errorf("region %s escalated", r.Key)
			}
		}
		return res
	}
	plain := solve()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	stop := make(chan struct{})
	var busy sync.WaitGroup
	for range 2 {
		busy.Add(1)
		go func() {
			defer busy.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	loaded := solve()
	close(stop)
	busy.Wait()

	if plain.Stats != loaded.Stats {
		t.Errorf("solver stats differ under load:\n%+v\nplain:\n%+v", loaded.Stats, plain.Stats)
	}
	if a, b := designDigest(p.Network, plain.Design), designDigest(p.Network, loaded.Design); a != b {
		t.Errorf("design digest %s under load, %s plain", b, a)
	}
	t.Logf("plain %d ms, loaded %d ms", plain.ElapsedMS, loaded.ElapsedMS)
}

func TestBatchVariantsShareRegions(t *testing.T) {
	// Variants differing only in cost budget must share every region
	// fingerprint: the region cache answers all subproblems of variant 2
	// from variant 1's work.
	solver := New(Options{})
	mk := func(budget int64) *core.Problem {
		p := triCampus(t, false)
		p.Thresholds.CostBudget = budget
		return p
	}
	res1, err := solver.Solve(context.Background(), mk(300))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Unsat {
		t.Fatal("baseline variant unsat")
	}
	res2, err := solver.Solve(context.Background(), mk(500))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Misses != 0 {
		t.Errorf("budget-only variant missed %d region solves; fingerprints must be budget-invariant", res2.Misses)
	}
}

// TestSolveAfterRegionPanic: a solver panic inside a region solve is
// contained by the scheduler and reported as that solve's error, and it
// must not leave the region's flight in the cache — the next solve of
// the same problem computes the region afresh instead of waiting for a
// leader that is gone.
func TestSolveAfterRegionPanic(t *testing.T) {
	solver := New(Options{})
	p := triCampus(t, false)
	p.Thresholds.CostBudget = 300

	plan, err := faults.Parse(faults.SatSolvePanic + "=1")
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Set(plan)
	_, err = solver.Solve(context.Background(), p)
	restore()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("solve under %s: err = %v, want a contained panic", faults.SatSolvePanic, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		res, err := solver.Solve(ctx, p)
		if err == nil && res.Unsat {
			err = errors.New("unsat")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("solve after the panic: %v", err)
		}
	case <-time.After(45 * time.Second):
		t.Fatal("solve after the panic hangs: a panicked region's flight was never released")
	}
}

// TestSolveOutlivesCancelledSibling: concurrent solves of one campus (a
// /v1/batch of variants) share region flights, and a region's compute
// runs under its leader's context. Cancelling the first solve mid-region
// must not fail the second, which nobody cancelled: its waiters see the
// leader give up, solve the regions themselves and return a design.
func TestSolveOutlivesCancelledSibling(t *testing.T) {
	solver := New(Options{})
	first, second := triCampus(t, false), triCampus(t, false)
	// Every SAT call sleeps before it searches, so the first solve is still
	// inside its region solves when the second joins their flights.
	plan, err := faults.Parse(faults.SatSolveDelay + "=1:300ms")
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Set(plan)
	defer restore()
	waitFor := func(what string, cond func(st lru.Stats) bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(solver.CacheStats()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting until %s: %+v", what, solver.CacheStats())
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	firstErr := make(chan error, 1)
	go func() {
		_, err := solver.Solve(ctx, first)
		firstErr <- err
	}()
	waitFor("the first solve leads a region flight", func(st lru.Stats) bool { return st.Misses > 0 })
	type outcome struct {
		res *Result
		err error
	}
	secondDone := make(chan outcome, 1)
	go func() {
		res, err := solver.Solve(context.Background(), second)
		secondDone <- outcome{res, err}
	}()
	waitFor("the second solve waits on one", func(st lru.Stats) bool { return st.Hits > 0 })
	cancel()
	restore() // the rest runs at full speed

	if err := <-firstErr; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled solve: err = %v, want context.Canceled", err)
	}
	select {
	case out := <-secondDone:
		if out.err != nil {
			t.Fatalf("the sibling of a cancelled solve failed with it: %v", out.err)
		}
		if out.res.Design == nil {
			t.Fatalf("the sibling of a cancelled solve returned no design: %+v", out.res)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("the sibling of a cancelled solve hangs")
	}
}
