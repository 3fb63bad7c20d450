package service

import (
	"context"
	"reflect"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/decomp"
	"configsynth/internal/netgen"
)

// TestBudgetVariantsRenderTheStitchOnce: budget-only variants of a
// campus submitted in mode=decomp are answered from one stored stitch,
// and its design is rendered once: every variant's result holds the
// same DesignJSON, and its design and text are what a fresh render of a
// fresh decomposed solve gives against the variant's own problem. A
// variant under the stitched cost is still a conservative unsat with no
// design. A problem that does not decompose falls back to a monolithic
// solve whose design is the caller's own, rendered per job.
func TestBudgetVariantsRenderTheStitchOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("solves a 40-host campus, too slow under the race detector")
	}
	p, err := netgen.Campus(netgen.CampusConfig{Hosts: 40, Departments: 4, Seed: 1,
		Thresholds: core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: 800}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	submit := func(p *core.Problem, budget int64) (*Job, *Result) {
		t.Helper()
		q := *p
		q.Thresholds.CostBudget = budget
		j, err := s.Submit(&q, SubmitOptions{Mode: ModeDecomp})
		if err != nil {
			t.Fatal(err)
		}
		return j, wait(t, j)
	}

	var shared *DesignJSON
	var want *core.Design
	for i := range 4 {
		j, res := submit(p, p.Thresholds.CostBudget+int64(i))
		if res.Status != "sat" || res.Cached || res.Decomp == nil || res.Decomp.Fallback {
			t.Fatalf("variant %d: status %q, cached %v, decomp %+v; want a fresh decomposed design", i, res.Status, res.Cached, res.Decomp)
		}
		if i == 0 {
			shared = res.Design
			fresh, err := decomp.New(decomp.Options{}).Solve(context.Background(), j.prob)
			if err != nil || fresh.Design == nil {
				t.Fatalf("a fresh decomposed solve: %v", err)
			}
			want = fresh.Design
		} else if res.Design != shared || res.Decomp.Misses != 0 {
			t.Fatalf("variant %d: misses %d, design rendered afresh (%p, first %p); want the stitch's one rendering", i, res.Decomp.Misses, res.Design, shared)
		}
		if r := render(j.prob, want); !reflect.DeepEqual(res.Design, r.Design) || res.Text != r.Text {
			t.Fatalf("variant %d: the shared rendering is not a fresh render against the variant's problem", i)
		}
	}

	if _, res := submit(p, shared.Cost-1); res.Status != "unsat" || res.Design != nil || res.Text != "" || !res.Decomp.Conservative {
		t.Fatalf("under the stitched cost: status %q, design %v, decomp %+v; want a conservative unsat and no design", res.Status, res.Design != nil, res.Decomp)
	}

	example := netgen.PaperExample()
	var first *DesignJSON
	for i := range 2 {
		j, res := submit(example, example.Thresholds.CostBudget+int64(i))
		if res.Status != "sat" || res.Decomp == nil || !res.Decomp.Fallback {
			t.Fatalf("paper example %d: status %q, decomp %+v; want a monolithic fallback's design", i, res.Status, res.Decomp)
		}
		if res.Design == first {
			t.Fatalf("paper example %d: a fallback's design was shared between jobs", i)
		}
		first = res.Design
		d, err := designFromJSON(j.prob, res.Design)
		if err != nil {
			t.Fatal(err)
		}
		if r := render(j.prob, d); res.Text != r.Text {
			t.Fatalf("paper example %d: text is not a render of the job's own design", i)
		}
	}
}
