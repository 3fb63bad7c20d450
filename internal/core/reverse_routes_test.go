package core_test

import (
	"context"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/netgen"
	"configsynth/internal/portfolio"
)

// TestProvenDesignVerifiesOnReverseFlows pins a problem whose proven
// design once failed Verify with "route 3 (8 links): firewall missing"
// on flows from a higher host ID to a lower one. The encoder read a host
// pair's routes from its smaller endpoint and the checker read each
// flow's from its source; once the route search truncates, the two sets
// differ. A pair has one route set, read the same way by both.
func TestProvenDesignVerifiesOnReverseFlows(t *testing.T) {
	p, err := netgen.Generate(netgen.Config{
		Hosts: 20, Routers: 16, MaxServices: 2, CRFraction: 0.1, Seed: 2,
		Thresholds: core.Thresholds{IsolationTenths: 50, UsabilityTenths: 30, CostBudget: 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(how string, d *core.Design, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if !d.Exact {
			t.Fatalf("%s: the design is not exact", how)
		}
		res, err := core.Verify(p, d)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("%s: a proven design fails Verify: %v", how, res.Violations)
		}
	}
	syn, err := core.NewSynthesizer(p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := syn.Solve()
	check("Solve", d, err)

	eng, err := portfolio.NewRacing(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err = eng.Run(context.Background(), core.Query{Thresholds: p.Thresholds})
	check("engine Run", d, err)
}
