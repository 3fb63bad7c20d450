package spec

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/isolation"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// TestCanonicalWalksRequirementsInStep: the canonical writer reads each
// flow's requirement flag off the sorted requirement list, walked in
// step with the sorted flows, and appends the flow lines' numbers
// itself. On a problem whose flows and requirements are declared out of
// order — with per-flow and per-service ranks, multi-digit and negative
// numbers, a requirement outside the flows and one on a flow declared
// twice — Canonical is still the fmt-based reference's bytes, and
// Fingerprint is that of its sorted twin, whose flows and requirements
// are declared in CompareFlows order.
func TestCanonicalWalksRequirementsInStep(t *testing.T) {
	net := topology.New()
	var hosts []topology.NodeID
	for range 12 {
		hosts = append(hosts, net.AddHost(""))
	}
	r := net.AddRouter("core")
	for _, h := range hosts {
		if _, err := net.Connect(h, r); err != nil {
			t.Fatal(err)
		}
	}
	f := func(src, dst int, svc usability.Service) usability.Flow {
		return usability.Flow{Src: hosts[src], Dst: hosts[dst], Svc: svc}
	}
	flows := []usability.Flow{
		f(11, 0, 1), f(0, 11, 12), f(3, 2, math.MaxInt32), f(0, 1, 1), f(10, 9, -7),
		f(0, 1, 2), f(5, 4, 0), f(10, 9, 3), f(2, 3, 1), f(0, 1, 1), f(7, 10, 100),
	}
	required := []usability.Flow{f(10, 9, -7), f(0, 1, 1), f(7, 10, 100), f(4, 5, 9), f(0, 11, 12)}
	problem := func(flows, required []usability.Flow) *core.Problem {
		req := usability.NewRequirements()
		for _, fl := range required {
			req.Require(fl)
		}
		ranks := usability.NewRanks()
		ranks.SetServiceRank(1, 4)
		ranks.SetServiceRank(100, 12)
		ranks.SetFlowRank(f(0, 1, 1), 27)
		ranks.SetFlowRank(f(5, 4, 0), 3)
		return &core.Problem{
			Network: net, Catalog: isolation.DefaultCatalog(), Flows: flows,
			Requirements: req, Ranks: ranks,
			Thresholds: core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: 1234},
		}
	}
	p := problem(flows, required)
	got, want := Canonical(p), referenceCanonical(p)
	if !bytes.Equal(got, want) {
		t.Fatalf("Canonical differs from the reference: %s", firstDiff(got, want))
	}
	for _, line := range []string{
		"flow 0 1 1 rank=27 require=true\nflow 0 1 1 rank=27 require=true\n",
		"flow 10 9 -7 rank=1 require=true\nflow 10 9 3 rank=1 require=false\n",
		"flow 3 2 2147483647 rank=1 require=false\n",
		"flow 7 10 100 rank=12 require=true\n",
	} {
		if !bytes.Contains(got, []byte(line)) {
			t.Errorf("the canonical form lacks the lines %q", line)
		}
	}

	sortedFlows := slices.Clone(flows)
	slices.SortFunc(sortedFlows, usability.CompareFlows)
	sortedReqs := slices.Clone(required)
	slices.SortFunc(sortedReqs, usability.CompareFlows)
	twin := problem(sortedFlows, sortedReqs)
	if !bytes.Equal(Canonical(twin), got) {
		t.Fatalf("the sorted twin's canonical form differs: %s", firstDiff(Canonical(twin), got))
	}
	if Fingerprint(twin) != Fingerprint(p) {
		t.Fatalf("the sorted twin's fingerprint %s, the problem's %s", Fingerprint(twin), Fingerprint(p))
	}
}
