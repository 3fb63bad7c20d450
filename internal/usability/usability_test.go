package usability

import (
	"testing"

	"configsynth/internal/order"
)

func TestRequirementsBasics(t *testing.T) {
	r := NewRequirements()
	f := Flow{Src: 1, Dst: 2, Svc: 3}
	if r.Required(f) {
		t.Fatal("empty set must not require anything")
	}
	r.Require(f)
	if !r.Required(f) {
		t.Fatal("required flow missing")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	r.Require(f) // idempotent
	if r.Len() != 1 {
		t.Fatalf("Len after duplicate = %d, want 1", r.Len())
	}
}

func TestRequirementsAllSorted(t *testing.T) {
	r := NewRequirements()
	flows := []Flow{
		{Src: 2, Dst: 1, Svc: 1},
		{Src: 1, Dst: 2, Svc: 2},
		{Src: 1, Dst: 2, Svc: 1},
		{Src: 1, Dst: 3, Svc: 1},
	}
	for _, f := range flows {
		r.Require(f)
	}
	got := r.All()
	want := []Flow{
		{Src: 1, Dst: 2, Svc: 1},
		{Src: 1, Dst: 2, Svc: 2},
		{Src: 1, Dst: 3, Svc: 1},
		{Src: 2, Dst: 1, Svc: 1},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("All()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRanksDefaults(t *testing.T) {
	r := NewRanks()
	if got := r.Rank(Flow{Src: 1, Dst: 2, Svc: 1}); got != 1 {
		t.Fatalf("default rank = %d, want 1", got)
	}
	if r.MaxRank() != 1 {
		t.Fatalf("MaxRank = %d, want 1", r.MaxRank())
	}
}

func TestRanksPrecedence(t *testing.T) {
	r := NewRanks()
	f := Flow{Src: 1, Dst: 2, Svc: 7}
	r.SetServiceRank(7, 3)
	if got := r.Rank(f); got != 3 {
		t.Fatalf("service rank = %d, want 3", got)
	}
	r.SetFlowRank(f, 5)
	if got := r.Rank(f); got != 5 {
		t.Fatalf("flow rank overrides service: got %d, want 5", got)
	}
	other := Flow{Src: 2, Dst: 1, Svc: 7}
	if got := r.Rank(other); got != 3 {
		t.Fatalf("other flow of service = %d, want 3", got)
	}
	if r.MaxRank() != 5 {
		t.Fatalf("MaxRank = %d, want 5", r.MaxRank())
	}
}

func TestRanksClampBelowOne(t *testing.T) {
	r := NewRanks()
	r.SetServiceRank(1, 0)
	r.SetFlowRank(Flow{Src: 1, Dst: 2, Svc: 1}, -3)
	if got := r.Rank(Flow{Src: 1, Dst: 2, Svc: 1}); got != 1 {
		t.Fatalf("clamped rank = %d, want 1", got)
	}
}

func TestRanksFromServiceOrder(t *testing.T) {
	// ssh > dns > web gives ranks 3, 2, 1.
	r, err := RanksFromServiceOrder([]Service{1, 2, 3}, []order.Constraint[Service]{
		{A: 3, B: 2, Rel: order.Greater},
		{A: 2, B: 1, Rel: order.Greater},
	})
	if err != nil {
		t.Fatal(err)
	}
	for svc, want := range map[Service]int{1: 1, 2: 2, 3: 3} {
		if got := r.Rank(Flow{Src: 1, Dst: 2, Svc: svc}); got != want {
			t.Errorf("rank(svc %d) = %d, want %d", svc, got, want)
		}
	}
}

func TestRanksFromServiceOrderInconsistent(t *testing.T) {
	_, err := RanksFromServiceOrder([]Service{1, 2}, []order.Constraint[Service]{
		{A: 1, B: 2, Rel: order.Greater},
		{A: 2, B: 1, Rel: order.Greater},
	})
	if err == nil {
		t.Fatal("cyclic order must fail")
	}
}

func TestFlowString(t *testing.T) {
	f := Flow{Src: 3, Dst: 7, Svc: 2}
	if got := f.String(); got != "g2(3->7)" {
		t.Fatalf("String = %q", got)
	}
}

// TestRequirementsSortedAndWalk: Sorted is the set in CompareFlows
// order, sorted once and built again after a Require; All is a copy of
// it. A Walk reads each flag of flows visited in that order — repeats,
// flows between requirements and a requirement outside the flows
// included — as Required does, and a nil set's walk requires nothing.
func TestRequirementsSortedAndWalk(t *testing.T) {
	r := NewRequirements()
	for _, f := range []Flow{{2, 1, 1}, {1, 3, -4}, {1, 2, 2}} {
		r.Require(f)
	}
	first := r.Sorted()
	if again := r.Sorted(); &again[0] != &first[0] {
		t.Fatal("Sorted sorted the same set twice")
	}
	all := r.All()
	all[0] = Flow{9, 9, 9}
	if r.Sorted()[0] == all[0] {
		t.Fatal("All shares its slice with Sorted")
	}
	r.Require(Flow{1, 2, 1})
	want := []Flow{{1, 2, 1}, {1, 2, 2}, {1, 3, -4}, {2, 1, 1}}
	if got := r.Sorted(); len(got) != len(want) || got[0] != want[0] || got[3] != want[3] {
		t.Fatalf("Sorted after a Require = %v, want %v", got, want)
	}

	visited := []Flow{{0, 5, 1}, {1, 2, 1}, {1, 2, 1}, {1, 2, 3}, {1, 3, -4}, {3, 0, 1}}
	w := r.Walk()
	for _, f := range visited {
		if got := w.Required(f); got != r.Required(f) {
			t.Fatalf("Walk says %v required %v, Required says %v", f, got, !got)
		}
	}
	var none *Requirements
	w = none.Walk()
	if w.Required(Flow{1, 2, 1}) {
		t.Fatal("a nil set's walk required a flow")
	}
}
