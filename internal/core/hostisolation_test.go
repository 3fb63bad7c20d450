package core_test

import (
	"math"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/isolation"
	"configsynth/internal/netgen"
	"configsynth/internal/policy"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// TestHostIsolationIsAFunctionOfTheDesign: repeated solves of one
// problem give one design, and that design's per-host scores are the
// same bits every time. Summing in map order gave a few of them a
// different last bit from one extraction to the next.
func TestHostIsolationIsAFunctionOfTheDesign(t *testing.T) {
	p, err := netgen.Generate(netgen.Config{
		Hosts: 40, Routers: 10, MaxServices: 3, CRFraction: 0.10, Seed: 3,
		Thresholds: core.Thresholds{IsolationTenths: 30, UsabilityTenths: 50, CostBudget: 160},
	})
	if err != nil {
		t.Fatal(err)
	}
	var first map[topology.NodeID]float64
	for run := 0; run < 10; run++ {
		syn, err := core.NewSynthesizer(p)
		if err != nil {
			t.Fatal(err)
		}
		d, err := syn.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = d.HostIsolation
			if len(first) != 40 {
				t.Fatalf("%d hosts scored, want 40", len(first))
			}
			continue
		}
		for h, v := range d.HostIsolation {
			if math.Float64bits(v) != math.Float64bits(first[h]) {
				t.Errorf("run %d: host %d isolation %v (bits %x), first run %v (bits %x)",
					run, h, v, math.Float64bits(v), first[h], math.Float64bits(first[h]))
			}
		}
	}
}

// TestHostIsolationByHand pins I_j of Eq. (2)–(3) on the paper example,
// worked out by hand. h2 is the destination of no connectivity
// requirement, so every flow into it can be denied: pinned to access
// deny (score 4 of 4, Ī = 1), while it sends no isolation (Ī = 0) to
// every host but h4, which gets payload inspection (score 1 of 4,
// Ī = 1/4). With the default α = 0.75 and nine peers:
//
//	I_h2 = 10 × (9 × 0.75 × 1 + 0.25 × 1/4) / 9 = 10 × 6.8125 / 9 ≈ 7.5694
func TestHostIsolationByHand(t *testing.T) {
	p := netgen.PaperExample()
	p.Thresholds.CostBudget = 100
	host := func(name string) topology.NodeID {
		for _, id := range p.Network.Hosts() {
			if n, _ := p.Network.Node(id); n.Name == name {
				return id
			}
		}
		t.Fatalf("no host %s", name)
		return 0
	}
	h2, h4 := host("h2"), host("h4")
	p.Policies = policy.NewSet()
	for _, h := range p.Network.Hosts() {
		if h == h2 {
			continue
		}
		p.Policies.Add(policy.PinFlow{Flow: usability.Flow{Src: h, Dst: h2, Svc: 1}, Pattern: isolation.AccessDeny})
		out := usability.Flow{Src: h2, Dst: h, Svc: 1}
		if h == h4 {
			p.Policies.Add(policy.PinFlow{Flow: out, Pattern: isolation.PayloadInspection})
			continue
		}
		for _, pat := range p.Catalog.Patterns() { // no isolation: every pattern forbidden
			p.Policies.Add(policy.PinFlow{Flow: out, Pattern: pat.ID, Negated: true})
		}
	}
	syn, err := core.NewSynthesizer(p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := syn.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * (9*0.75*1 + 0.25*0.25) / 9
	if got := d.HostIsolation[h2]; math.Abs(got-want) > 1e-12 {
		t.Errorf("I_h2 = %v, want %v", got, want)
	}
}
