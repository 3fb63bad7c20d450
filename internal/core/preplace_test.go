package core

import (
	"strings"
	"testing"

	"configsynth/internal/isolation"
	"configsynth/internal/policy"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// pinnedProxyProblem is a single flow forced onto proxy forwarding, so
// exactly one Proxy placement is needed on the h1..h2 route.
func pinnedProxyProblem(t *testing.T) *Problem {
	t.Helper()
	net, hosts := tinyNet(t, false)
	f := usability.Flow{Src: hosts[0], Dst: hosts[1], Svc: 1}
	pol := policy.NewSet()
	pol.Add(policy.PinFlow{Flow: f, Pattern: isolation.ProxyForwarding})
	return &Problem{
		Network:  net,
		Catalog:  isolation.DefaultCatalog(),
		Flows:    []usability.Flow{f},
		Policies: pol,
	}
}

func TestPreplacedDeviceIsFree(t *testing.T) {
	p := pinnedProxyProblem(t)
	proxy, _ := p.Catalog.Device(isolation.Proxy)

	cost, d, err := mustSynth(t, p).MinCost(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != proxy.Cost || d.Cost != proxy.Cost {
		t.Fatalf("baseline min cost = %d/%d, want %d (one proxy)", cost, d.Cost, proxy.Cost)
	}

	// Preplace a proxy on a route link: the same design is now free,
	// because MinCost measures marginal cost over the existing
	// deployment.
	var pinned *Design
	for link := range d.Placements {
		l, _ := p.Network.Link(link)
		p.Preplaced = append(p.Preplaced, Preplacement{A: l.A, B: l.B, Dev: isolation.Proxy})
		break
	}
	cost, pinned, err = mustSynth(t, p).MinCost(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 || pinned.Cost != 0 {
		t.Fatalf("min cost with preplaced proxy = %d/%d, want 0", cost, pinned.Cost)
	}
	// The free device must still appear in the extracted placements.
	found := false
	for _, devs := range pinned.Placements {
		for _, dev := range devs {
			if dev == isolation.Proxy {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("preplaced proxy missing from extracted design")
	}
}

func TestPreplacementValidation(t *testing.T) {
	p := pinnedProxyProblem(t)
	p.Preplaced = []Preplacement{{A: 0, B: 2, Dev: 99}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "unknown device") {
		t.Fatalf("unknown device not rejected: %v", err)
	}
	p.Preplaced = []Preplacement{{A: 0, B: 5, Dev: isolation.Proxy}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "non-existent link") {
		t.Fatalf("bogus link not rejected: %v", err)
	}
}

func TestCompletePlacementsNoOpOnSolvedDesign(t *testing.T) {
	p := tinyProblem(t, Thresholds{IsolationTenths: 20, UsabilityTenths: 30, CostBudget: 60})
	d, err := mustSynth(t, p).Solve()
	if err != nil {
		t.Fatal(err)
	}
	before := d.Cost
	added, err := CompletePlacements(p, d, topology.NewRouteTable(p.Network, p.Options.Routes))
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || d.Cost != before {
		t.Fatalf("completion touched a solved design: added=%d cost %d->%d", added, before, d.Cost)
	}
}

func TestCompletePlacementsRepairs(t *testing.T) {
	p := pinnedProxyProblem(t)
	p.Thresholds = Thresholds{CostBudget: 100}
	f := p.Flows[0]
	d := &Design{
		FlowPatterns: map[usability.Flow]isolation.PatternID{f: isolation.ProxyForwarding},
		Placements:   make(map[topology.LinkID][]isolation.DeviceID),
	}
	added, err := CompletePlacements(p, d, topology.NewRouteTable(p.Network, p.Options.Routes))
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 || d.Cost == 0 {
		t.Fatalf("empty design not repaired: added=%d cost=%d", added, d.Cost)
	}
	vr, err := Verify(p, d)
	if err != nil {
		t.Fatal(err)
	}
	if !vr.OK() {
		t.Fatalf("repaired design still invalid: %v", vr.Violations)
	}
	// A table of other route options stands for other routes: refused.
	other := topology.NewRouteTable(p.Network, topology.RouteOptions{MaxRoutes: 1})
	if _, err := CompletePlacements(p, d, other); err == nil {
		t.Fatal("a route table of other options was accepted")
	}
}
