package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"configsynth/internal/faults"
	"configsynth/internal/isolation"
	"configsynth/internal/policy"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// tinyNet builds h1 - r1 - r2 - r3 - r4 - h2 (route of 5 links) plus an
// optional third host on r2.
func tinyNet(t *testing.T, withH3 bool) (*topology.Network, []topology.NodeID) {
	t.Helper()
	net := topology.New()
	h1 := net.AddHost("h1")
	h2 := net.AddHost("h2")
	rs := make([]topology.NodeID, 4)
	for i := range rs {
		rs[i] = net.AddRouter("")
	}
	conn := func(a, b topology.NodeID) {
		t.Helper()
		if _, err := net.Connect(a, b); err != nil {
			t.Fatal(err)
		}
	}
	conn(h1, rs[0])
	conn(rs[0], rs[1])
	conn(rs[1], rs[2])
	conn(rs[2], rs[3])
	conn(rs[3], h2)
	hosts := []topology.NodeID{h1, h2}
	if withH3 {
		h3 := net.AddHost("h3")
		conn(h3, rs[1])
		hosts = append(hosts, h3)
	}
	return net, hosts
}

func tinyProblem(t *testing.T, th Thresholds) *Problem {
	t.Helper()
	net, _ := tinyNet(t, true)
	return &Problem{
		Network:    net,
		Catalog:    isolation.DefaultCatalog(),
		Flows:      AllPairsFlows(net, []usability.Service{1}),
		Thresholds: th,
	}
}

func mustSynth(t *testing.T, p *Problem) *Synthesizer {
	t.Helper()
	s, err := NewSynthesizer(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestValidateRejectsBadProblems(t *testing.T) {
	net, hosts := tinyNet(t, false)
	cat := isolation.DefaultCatalog()
	cases := []struct {
		name string
		p    Problem
	}{
		{"nil network", Problem{Catalog: cat, Flows: []usability.Flow{{}}}},
		{"nil catalog", Problem{Network: net, Flows: []usability.Flow{{}}}},
		{"no flows", Problem{Network: net, Catalog: cat}},
		{"self flow", Problem{Network: net, Catalog: cat,
			Flows: []usability.Flow{{Src: hosts[0], Dst: hosts[0], Svc: 1}}}},
		{"router flow", Problem{Network: net, Catalog: cat,
			Flows: []usability.Flow{{Src: 2, Dst: hosts[0], Svc: 1}}}},
		{"duplicate flow", Problem{Network: net, Catalog: cat,
			Flows: []usability.Flow{
				{Src: hosts[0], Dst: hosts[1], Svc: 1},
				{Src: hosts[0], Dst: hosts[1], Svc: 1},
			}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestValidateRequirementMustBeAFlow(t *testing.T) {
	net, hosts := tinyNet(t, false)
	reqs := usability.NewRequirements()
	reqs.Require(usability.Flow{Src: hosts[0], Dst: hosts[1], Svc: 99})
	p := Problem{
		Network:      net,
		Catalog:      isolation.DefaultCatalog(),
		Flows:        []usability.Flow{{Src: hosts[0], Dst: hosts[1], Svc: 1}},
		Requirements: reqs,
	}
	if err := p.Validate(); err == nil {
		t.Fatal("requirement outside flows must be rejected")
	}
}

func TestTrivialThresholdsSolve(t *testing.T) {
	// All-zero thresholds: "no isolation anywhere" is a valid design.
	p := tinyProblem(t, Thresholds{})
	d, err := mustSynth(t, p).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if d.Cost != 0 {
		t.Errorf("zero-cost budget must produce zero-cost design, got %d", d.Cost)
	}
	for f, pid := range d.FlowPatterns {
		if pid != isolation.PatternNone {
			t.Errorf("flow %v got pattern %d, want none", f, pid)
		}
	}
	if d.Isolation != 0 || d.Usability != 10 {
		t.Errorf("iso=%v usa=%v, want 0 and 10", d.Isolation, d.Usability)
	}
}

func TestFullIsolationNeedsBudget(t *testing.T) {
	// Isolation 10 requires denying every flow; with zero budget that is
	// unsatisfiable (firewalls cost money).
	p := tinyProblem(t, Thresholds{IsolationTenths: 100, CostBudget: 0})
	_, err := mustSynth(t, p).Solve()
	var tc *ThresholdConflictError
	if !errors.As(err, &tc) {
		t.Fatalf("got %v, want threshold conflict", err)
	}
	if len(tc.Core) == 0 {
		t.Fatal("core must not be empty")
	}
	hasIso, hasCost := false, false
	for _, k := range tc.Core {
		if k == ThresholdIsolation {
			hasIso = true
		}
		if k == ThresholdCost {
			hasCost = true
		}
	}
	if !hasIso || !hasCost {
		t.Fatalf("core %v should blame isolation and cost", tc.Core)
	}
}

func TestFullIsolationWithBudgetDeniesEverything(t *testing.T) {
	p := tinyProblem(t, Thresholds{IsolationTenths: 100, CostBudget: 1000})
	d, err := mustSynth(t, p).Solve()
	if err != nil {
		t.Fatal(err)
	}
	for f, pid := range d.FlowPatterns {
		if pid != isolation.AccessDeny {
			t.Errorf("flow %v got %d, want access deny", f, pid)
		}
	}
	if d.Isolation != 10 {
		t.Errorf("isolation = %v, want 10", d.Isolation)
	}
	if d.Usability != 0 {
		t.Errorf("usability = %v, want 0", d.Usability)
	}
	if d.DeviceCount() == 0 {
		t.Error("denying all flows requires firewalls")
	}
}

func TestIsolationAndUsabilityConflict(t *testing.T) {
	// Isolation 10 and usability 10 are mutually exclusive (paper Table
	// III extremes).
	p := tinyProblem(t, Thresholds{IsolationTenths: 100, UsabilityTenths: 100, CostBudget: 1000})
	_, err := mustSynth(t, p).Solve()
	var tc *ThresholdConflictError
	if !errors.As(err, &tc) {
		t.Fatalf("got %v, want conflict", err)
	}
}

func TestConnectivityRequirementBlocksDeny(t *testing.T) {
	net, hosts := tinyNet(t, false)
	flow := usability.Flow{Src: hosts[0], Dst: hosts[1], Svc: 1}
	back := usability.Flow{Src: hosts[1], Dst: hosts[0], Svc: 1}
	reqs := usability.NewRequirements()
	reqs.Require(flow)
	p := &Problem{
		Network:      net,
		Catalog:      isolation.DefaultCatalog(),
		Flows:        []usability.Flow{flow, back},
		Requirements: reqs,
		Thresholds:   Thresholds{CostBudget: 1000},
	}
	s := mustSynth(t, p)
	iso, d, err := s.MaxIsolation(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if d.FlowPatterns[flow] == isolation.AccessDeny {
		t.Error("CR flow must not be denied")
	}
	if d.FlowPatterns[back] != isolation.AccessDeny {
		t.Error("unconstrained flow should be denied when maximizing isolation")
	}
	// Max isolation: back = deny (4) + flow = proxy with trusted comm
	// (3, the best non-deny pattern; the route is long enough for the
	// tunnel) out of 2·4 possible → 8.75.
	if iso < 8.7 || iso > 8.8 {
		t.Errorf("max isolation = %v, want 8.75", iso)
	}
	if got := d.FlowPatterns[flow]; got != isolation.ProxyTrustedComm {
		t.Errorf("CR flow pattern = %d, want proxy+trusted comm", got)
	}
}

func TestDeviceCoverageOnRoutes(t *testing.T) {
	// If a flow is denied, every route between the pair must carry a
	// firewall.
	net, hosts := tinyNet(t, false)
	flow := usability.Flow{Src: hosts[0], Dst: hosts[1], Svc: 1}
	pols := policy.NewSet()
	pols.Add(policy.PinFlow{Flow: flow, Pattern: isolation.AccessDeny})
	p := &Problem{
		Network:    net,
		Catalog:    isolation.DefaultCatalog(),
		Flows:      []usability.Flow{flow},
		Policies:   pols,
		Thresholds: Thresholds{CostBudget: 1000},
	}
	s := mustSynth(t, p)
	d, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if d.FlowPatterns[flow] != isolation.AccessDeny {
		t.Fatal("pinned pattern not applied")
	}
	routes, err := net.Routes(hosts[0], hosts[1], topology.RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range routes {
		found := false
		for _, link := range route {
			for _, dev := range d.Placements[link] {
				if dev == isolation.Firewall {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("route %v lacks a firewall", route)
		}
	}
}

func TestIPSecTunnelPlacement(t *testing.T) {
	// Trusted communication on the 5-link route must place IPSec
	// gateways within T=2 links of each end.
	net, hosts := tinyNet(t, false)
	flow := usability.Flow{Src: hosts[0], Dst: hosts[1], Svc: 1}
	pols := policy.NewSet()
	pols.Add(policy.PinFlow{Flow: flow, Pattern: isolation.TrustedComm})
	p := &Problem{
		Network:    net,
		Catalog:    isolation.DefaultCatalog(),
		Flows:      []usability.Flow{flow},
		Policies:   pols,
		Thresholds: Thresholds{CostBudget: 1000},
	}
	d, err := mustSynth(t, p).Solve()
	if err != nil {
		t.Fatal(err)
	}
	routes, _ := net.Routes(hosts[0], hosts[1], topology.RouteOptions{})
	route := routes[0]
	hasIPSec := func(links []topology.LinkID) bool {
		for _, l := range links {
			for _, dev := range d.Placements[l] {
				if dev == isolation.IPSec {
					return true
				}
			}
		}
		return false
	}
	if !hasIPSec(route[:2]) {
		t.Error("no IPSec gateway within 2 links of the source")
	}
	if !hasIPSec(route[len(route)-2:]) {
		t.Error("no IPSec gateway within 2 links of the destination")
	}
}

func TestTrustedCommOnShortRouteUsesOverlappingWindows(t *testing.T) {
	// Regression for the pruner/encoder IPSec reconciliation: on
	// h1 - r - h2 the only route has 2 links, fewer than 2T = 4, so the
	// head and tail gateway windows overlap. The encoder used to declare
	// the pair untunnelable while the pruner's covered() agreed for a
	// different reason (any short route returned false), and the two
	// could disagree on which gateways to keep. Both now share
	// tunnelWindows: the pattern is available, a single gateway in the
	// overlap suffices, and the pruner must keep (at least) one gateway.
	net := topology.New()
	h1 := net.AddHost("h1")
	h2 := net.AddHost("h2")
	r := net.AddRouter("r")
	if _, err := net.Connect(h1, r); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Connect(r, h2); err != nil {
		t.Fatal(err)
	}
	flow := usability.Flow{Src: h1, Dst: h2, Svc: 1}
	pols := policy.NewSet()
	pols.Add(policy.PinFlow{Flow: flow, Pattern: isolation.TrustedComm})
	p := &Problem{
		Network:    net,
		Catalog:    isolation.DefaultCatalog(),
		Flows:      []usability.Flow{flow},
		Policies:   pols,
		Thresholds: Thresholds{CostBudget: 1000},
		Options:    Options{Verify: true},
	}
	d, err := mustSynth(t, p).Solve()
	if err != nil {
		t.Fatalf("short-route tunnel should be satisfiable with overlapping windows: %v", err)
	}
	if got := d.FlowPatterns[flow]; got != isolation.TrustedComm {
		t.Fatalf("flow pattern = %d, want trusted communication", got)
	}
	gateways := 0
	for _, devs := range d.Placements {
		for _, dev := range devs {
			if dev == isolation.IPSec {
				gateways++
			}
		}
	}
	if gateways < 1 {
		t.Fatalf("pruner dropped every IPSec gateway: placements %v", d.Placements)
	}
	// The independent simulator applies the same window semantics.
	res, err := Verify(p, d)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("independent verification rejects the design: %v", res.Violations)
	}
}

func TestPolicyForbidPattern(t *testing.T) {
	net, hosts := tinyNet(t, false)
	flows := []usability.Flow{
		{Src: hosts[0], Dst: hosts[1], Svc: 1},
		{Src: hosts[1], Dst: hosts[0], Svc: 2},
	}
	pols := policy.NewSet()
	// UIC1/UIC3 style: no trusted communication for service 1.
	pols.Add(policy.ForbidPattern{Svc: 1, Pattern: isolation.TrustedComm})
	p := &Problem{
		Network:    net,
		Catalog:    isolation.DefaultCatalog(),
		Flows:      flows,
		Policies:   pols,
		Thresholds: Thresholds{CostBudget: 1000},
	}
	s := mustSynth(t, p)
	_, d, err := s.MaxIsolation(100, 1000) // full usability: deny impossible
	if err != nil {
		t.Fatal(err)
	}
	if d.FlowPatterns[flows[0]] == isolation.TrustedComm {
		t.Error("forbidden pattern selected for service 1")
	}
}

func TestPolicyImplication(t *testing.T) {
	// UIC2 style: if flow A is denied then flow B must not be denied.
	net, hosts := tinyNet(t, false)
	a := usability.Flow{Src: hosts[0], Dst: hosts[1], Svc: 1}
	b := usability.Flow{Src: hosts[1], Dst: hosts[0], Svc: 1}
	pols := policy.NewSet()
	pols.Add(policy.Implication{
		If: a, IfPattern: isolation.AccessDeny,
		Then: b, ThenPattern: isolation.AccessDeny,
		ThenNegated: true,
	})
	pols.Add(policy.PinFlow{Flow: a, Pattern: isolation.AccessDeny})
	p := &Problem{
		Network:    net,
		Catalog:    isolation.DefaultCatalog(),
		Flows:      []usability.Flow{a, b},
		Policies:   pols,
		Thresholds: Thresholds{CostBudget: 1000},
	}
	d, err := mustSynth(t, p).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if d.FlowPatterns[b] == isolation.AccessDeny {
		t.Error("implication violated: b is denied although a is denied")
	}
}

func TestExplainSuggestsRelaxations(t *testing.T) {
	p := tinyProblem(t, Thresholds{IsolationTenths: 100, UsabilityTenths: 100, CostBudget: 1000})
	s := mustSynth(t, p)
	ex, err := s.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Core) == 0 {
		t.Fatal("expected a non-empty core")
	}
	if len(ex.Relaxations) == 0 {
		t.Fatal("expected at least one relaxation")
	}
	// Each relaxation must drop a subset of the core and carry a
	// suggestion per dropped threshold.
	for _, r := range ex.Relaxations {
		if len(r.Dropped) == 0 {
			t.Fatal("empty relaxation")
		}
		if len(r.Suggestions) != len(r.Dropped) {
			t.Fatalf("suggestions %d != dropped %d", len(r.Suggestions), len(r.Dropped))
		}
	}
}

// TestSuggestionMarksADescentCutShort: a suggestion is exact exactly
// when its descent proved the optimum. Under a probe budget of one
// conflict some descent stops short, and its suggestion says so in the
// flag and in the text; without a budget every suggestion is the proven
// optimum and reads as it always did.
func TestSuggestionMarksADescentCutShort(t *testing.T) {
	const mark = " (best proven; search cut short)"
	suggestions := func(probeBudget int64) []Suggestion {
		t.Helper()
		p := tinyProblem(t, Thresholds{IsolationTenths: 100, UsabilityTenths: 100, CostBudget: 1000})
		p.Options.ProbeBudget = probeBudget
		ex, err := mustSynth(t, p).Explain()
		if err != nil {
			t.Fatalf("probe budget %d: %v", probeBudget, err)
		}
		var out []Suggestion
		for _, r := range ex.Relaxations {
			out = append(out, r.Suggestions...)
		}
		return out
	}
	cut := 0
	for _, sg := range suggestions(1) {
		if !sg.Exact {
			cut++
			if !strings.HasSuffix(sg.String(), mark) {
				t.Errorf("an inexact suggestion reads %q", sg)
			}
		}
	}
	if cut == 0 {
		t.Error("a probe budget of one conflict cut no descent short")
	}
	for _, sg := range suggestions(-1) {
		if !sg.Exact || strings.Contains(sg.String(), mark) {
			t.Errorf("an unbudgeted descent suggested %q, Exact %v", sg, sg.Exact)
		}
	}
	exact := Suggestion{Threshold: ThresholdCost, ValueTenths: 12, Exact: true}
	if got, want := exact.String(), "set the cost budget to at least $12K"; got != want {
		t.Errorf("an exact suggestion reads %q, want %q", got, want)
	}
}

// TestExplainFailsWhenALaterCheckIsLeftUndecided: Algorithm 1 explains
// the whole core or says that its budget ran out. Spurious interrupts
// (sat.solve.interrupt) let Explain's first check through and leave a
// later one undecided — a subset's re-check, a descent's first model or
// one of its probes — under some of the seeds tried. Explain must then
// return ErrBudgetExceeded or the uninterrupted run's relaxations with a
// suggestion for every dropped threshold; a probe cut short may leave a
// suggestion at a looser value, as a budget would, but never a shorter
// list.
func TestExplainFailsWhenALaterCheckIsLeftUndecided(t *testing.T) {
	th := Thresholds{IsolationTenths: 100, UsabilityTenths: 100, CostBudget: 1000}
	want, err := mustSynth(t, tinyProblem(t, th)).Explain()
	if err != nil {
		t.Fatal(err)
	}
	// shape is an explanation without its suggested values.
	shape := func(ex *Explanation) string {
		out := fmt.Sprint(ex.Core)
		for _, r := range ex.Relaxations {
			out += fmt.Sprint(" ", r.Dropped, "→")
			for _, sg := range r.Suggestions {
				out += fmt.Sprint(sg.Threshold, ",")
			}
		}
		return out
	}
	// planOf returns a fresh plan, its arrival counter at zero.
	planOf := func(seed int) *faults.Plan {
		plan, err := faults.Parse(fmt.Sprintf("seed=%d,%s=0.2", seed, faults.SatSolveInterrupt))
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	cut := 0
	for seed := 1; seed <= 40; seed++ {
		restore := faults.Set(planOf(seed))
		firstFires := faults.Fire(faults.SatSolveInterrupt)
		restore()
		if firstFires {
			continue
		}
		s := mustSynth(t, tinyProblem(t, th))
		restore = faults.Set(planOf(seed))
		ex, err := s.Explain()
		restore()
		switch {
		case errors.Is(err, ErrBudgetExceeded):
			cut++
		case err != nil:
			t.Fatalf("seed %d: %v", seed, err)
		case shape(ex) != shape(want):
			t.Fatalf("seed %d: an interrupted Explain returned %+v, the uninterrupted one %+v", seed, ex, want)
		}
	}
	if cut == 0 {
		t.Fatal("no seed left a check after the first undecided")
	}
}

func TestExplainOnSatisfiableModel(t *testing.T) {
	p := tinyProblem(t, Thresholds{})
	if _, err := mustSynth(t, p).Explain(); !errors.Is(err, ErrSatisfiable) {
		t.Fatalf("got %v, want ErrSatisfiable", err)
	}
}

func TestAssistEntries(t *testing.T) {
	p := tinyProblem(t, Thresholds{CostBudget: 1000})
	s := mustSynth(t, p)
	entries, err := s.Assist([]int{0, 50, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(entries))
	}
	// Isolation must be non-increasing in the usability level.
	for i := 1; i < len(entries); i++ {
		if entries[i].IsolationTenths > entries[i-1].IsolationTenths {
			t.Errorf("isolation must not increase with usability: %v", entries)
		}
	}
	// At usability 10, no flow may be denied.
	last := entries[2]
	if last.Mix[isolation.AccessDeny] > 0 {
		t.Error("usability 10 must exclude access deny")
	}
}

func TestMinCost(t *testing.T) {
	p := tinyProblem(t, Thresholds{IsolationTenths: 100, CostBudget: 1000})
	s := mustSynth(t, p)
	cost, d, err := s.MinCost(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatalf("full isolation must cost something, got %d", cost)
	}
	if d.Isolation != 10 {
		t.Errorf("isolation = %v, want 10", d.Isolation)
	}
}

func TestStatsShape(t *testing.T) {
	p := tinyProblem(t, Thresholds{})
	s := mustSynth(t, p)
	st := s.Stats()
	if st.Flows != len(p.Flows) {
		t.Errorf("Flows = %d, want %d", st.Flows, len(p.Flows))
	}
	if st.Vars == 0 || st.Clauses == 0 || st.PBTerms == 0 {
		t.Errorf("empty stats: %+v", st)
	}
	if st.EstimatedBytes <= 0 {
		t.Error("EstimatedBytes must be positive")
	}
}

func TestCheckAtWhatIfQueries(t *testing.T) {
	p := tinyProblem(t, Thresholds{IsolationTenths: 20, CostBudget: 60})
	s := mustSynth(t, p)
	// Looser-than-problem thresholds must be satisfiable.
	d, err := s.CheckAt(Thresholds{IsolationTenths: 10, CostBudget: 60})
	if err != nil {
		t.Fatal(err)
	}
	if d.Isolation < 1.0 {
		t.Errorf("isolation %.2f below the queried threshold", d.Isolation)
	}
	// An impossible combination must fail without disturbing the model.
	if _, err := s.CheckAt(Thresholds{IsolationTenths: 100, UsabilityTenths: 100, CostBudget: 100}); !IsUnsat(err) {
		t.Fatalf("got %v, want unsat", err)
	}
	// The original query still works afterwards.
	if _, err := s.Solve(); err != nil {
		t.Fatalf("solve after what-if failed: %v", err)
	}
}

func TestExtendedCatalogSynthesis(t *testing.T) {
	// With the NAT-based source-hiding pattern pinned, the synthesizer
	// must place a NAT device on every route, and verification must
	// accept the design.
	net, hosts := tinyNet(t, false)
	flow := usability.Flow{Src: hosts[0], Dst: hosts[1], Svc: 1}
	pols := policy.NewSet()
	pols.Add(policy.PinFlow{Flow: flow, Pattern: isolation.SourceHiding})
	p := &Problem{
		Network:    net,
		Catalog:    isolation.ExtendedCatalog(),
		Flows:      []usability.Flow{flow},
		Policies:   pols,
		Thresholds: Thresholds{CostBudget: 50},
	}
	s := mustSynth(t, p)
	d, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if d.FlowPatterns[flow] != isolation.SourceHiding {
		t.Fatalf("pattern = %d, want source hiding", d.FlowPatterns[flow])
	}
	hasNAT := false
	for _, devs := range d.Placements {
		for _, dev := range devs {
			if dev == isolation.NAT {
				hasNAT = true
			}
		}
	}
	if !hasNAT {
		t.Fatal("source hiding requires a NAT placement")
	}
	res, err := Verify(p, d)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("extended design failed verification: %v", res.Violations)
	}
}

func TestHostIsolationReporting(t *testing.T) {
	net, hosts := tinyNet(t, false)
	a := usability.Flow{Src: hosts[0], Dst: hosts[1], Svc: 1}
	b := usability.Flow{Src: hosts[1], Dst: hosts[0], Svc: 1}
	pols := policy.NewSet()
	pols.Add(policy.PinFlow{Flow: a, Pattern: isolation.AccessDeny})
	p := &Problem{
		Network:    net,
		Catalog:    isolation.DefaultCatalog(),
		Flows:      []usability.Flow{a, b},
		Policies:   pols,
		Thresholds: Thresholds{CostBudget: 1000},
		Options:    Options{AlphaPct: 100},
	}
	s := mustSynth(t, p)
	d, err := s.Run(Query{Optimise: ThresholdUsability, Thresholds: Thresholds{CostBudget: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	// With α=1, h2's isolation counts only incoming (denied) traffic:
	// 10; h1's counts only b (not denied, usability maximized → none).
	if got := d.HostIsolation[hosts[1]]; got < 9.9 {
		t.Errorf("h2 isolation = %v, want 10", got)
	}
	if got := d.HostIsolation[hosts[0]]; got > 0.1 {
		t.Errorf("h1 isolation = %v, want 0", got)
	}
}

// TestVerifyEnvWiring checks that CONFSYNTH_VERIFY arms the solver
// self-checks through Options.withDefaults, and that the recognized
// "off" spellings leave them disarmed.
func TestVerifyEnvWiring(t *testing.T) {
	th := Thresholds{IsolationTenths: 20, UsabilityTenths: 20, CostBudget: 200}
	for _, tc := range []struct {
		env  string
		want bool
	}{
		{"", false}, {"0", false}, {"false", false},
		{"1", true}, {"yes", true},
	} {
		t.Setenv("CONFSYNTH_VERIFY", tc.env)
		s := mustSynth(t, tinyProblem(t, th))
		if s.Verifying() != tc.want {
			t.Fatalf("CONFSYNTH_VERIFY=%q: Verifying() = %v, want %v", tc.env, s.Verifying(), tc.want)
		}
		if tc.want {
			// A full solve under the hooks: any unsound model or core
			// panics.
			if _, err := s.Solve(); err != nil {
				t.Fatalf("CONFSYNTH_VERIFY=%q: %v", tc.env, err)
			}
		}
	}
	t.Setenv("CONFSYNTH_VERIFY", "")
	p := tinyProblem(t, th)
	p.Options.Verify = true // the explicit option works without the env
	if s := mustSynth(t, p); !s.Verifying() {
		t.Fatal("Options.Verify must arm the self-checks")
	}
}
