package core_test

import (
	"errors"
	"reflect"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/netgen"
)

func conflictOf(t *testing.T, what string, err error) []core.ThresholdKind {
	t.Helper()
	var tc *core.ThresholdConflictError
	if !errors.As(err, &tc) {
		t.Fatalf("%s: err = %v, want a threshold conflict", what, err)
	}
	return tc.Core
}

// TestUnsatCoreNamesTheQuerysThresholds: an unsat core is mapped back
// through the guards of the query that was checked, not through those of
// the problem's own thresholds. A conflict between thresholds that are
// not the problem's own must name them; reported with an empty core it
// would read as "the hard constraints conflict regardless of
// thresholds", which decomposition takes for a proof of global unsat.
func TestUnsatCoreNamesTheQuerysThresholds(t *testing.T) {
	hard := core.Thresholds{IsolationTenths: 90, UsabilityTenths: 80, CostBudget: 1000}
	own := netgen.PaperExample()
	own.Thresholds = hard
	syn, err := core.NewSynthesizer(own)
	if err != nil {
		t.Fatal(err)
	}
	_, err = syn.Solve()
	want := conflictOf(t, "own-threshold Solve", err)
	if !reflect.DeepEqual(want, []core.ThresholdKind{core.ThresholdIsolation, core.ThresholdUsability}) {
		t.Fatalf("own-threshold Solve blames %v, want [isolation usability]", want)
	}

	// The same thresholds, foreign to the problem the synthesizer encodes.
	foreign := func() *core.Synthesizer {
		s, err := core.NewSynthesizer(netgen.PaperExample())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	_, err = foreign().CheckAt(hard)
	if got := conflictOf(t, "foreign-threshold CheckAt", err); !reflect.DeepEqual(got, want) {
		t.Errorf("foreign-threshold CheckAt blames %v, want %v", got, want)
	}
	// The base check of a descent: the thresholds it holds conflict before
	// the free one is ever probed.
	_, _, err = foreign().MinCost(hard.IsolationTenths, hard.UsabilityTenths)
	if got := conflictOf(t, "infeasible MinCost base", err); !reflect.DeepEqual(got, want) {
		t.Errorf("infeasible MinCost base blames %v, want %v", got, want)
	}
}
