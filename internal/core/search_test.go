package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/netgen"
)

// searchPinned is what one descent is pinned to: the solver counters
// after it and a digest of the design it extracted.
type searchPinned struct {
	Value                                        int64
	Conflicts, Decisions, Propagations, Restarts int64
	Reduced, Subsumed, Strengthened, ArenaGCs    int64
	Design                                       string
}

// designDigest hashes everything of a design the model determines:
// fmt prints maps in key order, and the scores are left out because
// they are floats derived from the patterns.
func designDigest(d *core.Design) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%v|%v|%d|%v", d.FlowPatterns, d.Placements, d.Cost, d.Exact)))
	return hex.EncodeToString(h[:])
}

// TestSearchMatchesRecordedParent pins the CDCL search itself: a
// min-cost and a max-isolation descent on 8-host netgen instances, which
// together take over 15 000 conflicts and so cross the first
// inprocessing pass, learnt-clause reductions and arena compactions.
// The numbers were recorded before the solver kept a per-literal value
// table and stopped allocating per conflict; how the solver stores its
// state must never move them. They are the search's own: the
// CONFSYNTH_VERIFY self-checks re-solve every unsat core on the same
// solver, so they stay off here. The max-isolation design digest names
// placements by LinkID; it was re-recorded when networks began numbering
// their links in sorted endpoint order, for the same placements by
// endpoints.
func TestSearchMatchesRecordedParent(t *testing.T) {
	t.Setenv("CONFSYNTH_VERIFY", "")
	recorded := map[string]searchPinned{
		"min-cost/seed4": {Value: 5,
			Conflicts: 8002, Decisions: 14770, Propagations: 149956, Restarts: 30,
			Reduced: 5239, Subsumed: 0, Strengthened: 0, ArenaGCs: 2,
			Design: "79d2715ed1dea46faaade654ecf97d3a2eb1f8cd34e467fd61cd670289da0e8a"},
		"max-isolation/seed2": {Value: 80,
			Conflicts: 7359, Decisions: 15432, Propagations: 537016, Restarts: 41,
			Reduced: 2495, Subsumed: 0, Strengthened: 9, ArenaGCs: 1,
			Design: "ba6646a7a017456ce390045b55ed43b7db5418e81d5482881ba25a6a01d15bfc"},
	}
	for name, c := range map[string]struct {
		seed int64
		run  func(*core.Synthesizer) (int64, *core.Design, error)
	}{
		"min-cost/seed4": {4, func(s *core.Synthesizer) (int64, *core.Design, error) {
			return s.MinCost(30, 50)
		}},
		"max-isolation/seed2": {2, func(s *core.Synthesizer) (int64, *core.Design, error) {
			iso, d, err := s.MaxIsolation(80, 80)
			return int64(iso * 10), d, err
		}},
	} {
		p, err := netgen.Generate(netgen.Config{Hosts: 8, Routers: 8, MaxServices: 3, CRFraction: 0.10, Seed: c.seed,
			Options: core.Options{ProbeBudget: 20000}})
		if err != nil {
			t.Fatal(err)
		}
		syn, err := core.NewSynthesizer(p)
		if err != nil {
			t.Fatal(err)
		}
		v, d, err := c.run(syn)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := syn.Stats()
		got := searchPinned{
			Value:     v,
			Conflicts: st.Conflicts, Decisions: st.Decisions, Propagations: st.Propagations, Restarts: st.Restarts,
			Reduced: st.Reduced, Subsumed: st.Subsumed, Strengthened: st.Strengthened, ArenaGCs: st.ArenaGCs,
			Design: designDigest(d),
		}
		if want := recorded[name]; got != want {
			t.Errorf("%s: search moved:\n got %#v\nwant %#v", name, got, want)
		}
	}
}

// TestSearchAllocBudget holds the conflict loop to no allocation per
// conflict. Warm-up checks first grow what a solver grows once — watch
// lists up to their high-water marks, the arena, the learnt and theory
// scratch — and reduce the learnt database a few times; a budgeted check
// just above the max-isolation optimum, clause and PB-theory conflicts
// alike, then makes at most one allocation per twenty conflicts. What
// remains is amortised growth and the per-pass tables of reduction,
// inprocessing and arena compaction. While the learnt clause and the
// theory conflicts were fresh slices it made several per conflict.
func TestSearchAllocBudget(t *testing.T) {
	const budget, warmups = 3000, 12
	p, err := netgen.Generate(netgen.Config{Hosts: 8, Routers: 8, MaxServices: 3, CRFraction: 0.10, Seed: 4,
		Options: core.Options{SolverBudget: budget}})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := core.NewSynthesizer(p)
	if err != nil {
		t.Fatal(err)
	}
	th := core.Thresholds{IsolationTenths: 78, UsabilityTenths: 80, CostBudget: 80}
	var spent int64
	check := func() {
		before := syn.Stats().Conflicts
		if _, err := syn.CheckAt(th); !errors.Is(err, core.ErrBudgetExceeded) {
			t.Fatalf("check at %+v: err = %v, want the budget to run out", th, err)
		}
		spent = syn.Stats().Conflicts - before
	}
	for range warmups {
		check()
	}
	allocs := testing.AllocsPerRun(1, check)
	if spent < budget {
		t.Fatalf("the measured check spent %d conflicts, want at least %d", spent, budget)
	}
	if perConflict := allocs / float64(spent); perConflict > 0.05 && !raceEnabled {
		t.Errorf("%.0f allocations over %d conflicts (%.3f per conflict), budget 0.05", allocs, spent, perConflict)
	}
}
