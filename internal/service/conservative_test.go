package service

import (
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/netgen"
)

// TestConservativeUnsatIsNotCached: a decomposed unsat that only says the
// stitched regions together break the budget — the monolithic encoding
// might still meet it — is no fact about the problem. The campus under a
// budget below its stitched cost, submitted twice in mode=decomp, is
// answered conservatively both times and is no cache hit the second.
func TestConservativeUnsatIsNotCached(t *testing.T) {
	p, err := netgen.Campus(netgen.CampusConfig{Hosts: 40, Departments: 4, Seed: 1,
		Thresholds: core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: 800}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	j, err := s.Submit(p, SubmitOptions{Mode: ModeDecomp})
	if err != nil {
		t.Fatal(err)
	}
	res := wait(t, j)
	if res.Status != "sat" || res.Decomp == nil || res.Decomp.Fallback {
		t.Fatalf("the campus: status %q, decomp %+v; want a decomposed design", res.Status, res.Decomp)
	}
	under := *p
	under.Thresholds.CostBudget = res.Design.Cost - 1
	for i := range 2 {
		j, err := s.Submit(&under, SubmitOptions{Mode: ModeDecomp})
		if err != nil {
			t.Fatal(err)
		}
		res := wait(t, j)
		if res.Status != "unsat" || res.Decomp == nil || !res.Decomp.Conservative {
			t.Fatalf("submission %d under the stitched cost: status %q, decomp %+v; want a conservative unsat", i+1, res.Status, res.Decomp)
		}
		if res.Cached {
			t.Fatalf("submission %d: a conservative unsat was served from the cache", i+1)
		}
	}
}
