package core_test

import (
	"reflect"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/smt"
)

// TestBisectReproducesBothDescents feeds Query.Bisect scripted probes and
// compares the thresholds it visits with sequences recorded from the two
// loops it replaced (PR 16's core.descend and portfolio.descent, run
// against the same scripts): the sequential arm's probes return a design,
// so the bound jumps to what it reached — for cost in the "saving"
// coordinate — and the racing arm's return a status only, maximising
// sliders by ceil-midpoint and minimising cost by what used to be a
// floor-midpoint search of its own. An Unknown probe is pessimistic and
// makes the answer inexact in both.
func TestBisectReproducesBothDescents(t *testing.T) {
	const iso, usa, cost = core.ThresholdIsolation, core.ThresholdUsability, core.ThresholdCost
	// A scripted probe answers with a status and what the design reached;
	// reach < 0 means the prober has no design, only the status.
	type script func(v int64) (st smt.Status, reach int64)
	threshold := func(sat func(v int64) bool, reach func(v int64) int64, unknown int64) script {
		return func(v int64) (smt.Status, int64) {
			switch {
			case v == unknown:
				return smt.Unknown, -1
			case !sat(v):
				return smt.Unsat, -1
			}
			return smt.Sat, reach(v)
		}
	}
	atMost := func(top int64) func(int64) bool { return func(v int64) bool { return v <= top } }
	atLeast := func(bottom int64) func(int64) bool { return func(v int64) bool { return v >= bottom } }
	statusOnly := func(int64) int64 { return -1 }
	asProbed := func(v int64) int64 { return v }
	const never = -1
	for _, tc := range []struct {
		name    string
		kind    core.ThresholdKind
		from    int64
		probe   script
		visited []int64
		value   int64 // the bound settled on
		best    int64 // what the last design reached; -1 if none was returned
		exact   bool
	}{
		// core.descend: designs come back, bounds jump.
		{"sequential isolation, jumps", iso, 23,
			threshold(atMost(61), func(v int64) int64 { return min(61, v+7) }, never),
			[]int64{62, 42, 55}, 61, 61, true},
		{"sequential isolation, score floors below the probed value", iso, 0,
			threshold(atMost(30), func(v int64) int64 { return v - 1 }, never),
			[]int64{50, 25, 37, 31, 28, 29, 30}, 30, 29, true},
		{"sequential cost, saving coordinate", cost, 40,
			threshold(atLeast(13), func(v int64) int64 { return max(13, v-3) }, never),
			[]int64{20, 8, 13, 11, 12}, 13, 13, true},
		{"sequential usability, unknown probe", usa, 10,
			threshold(atMost(70), asProbed, 55),
			[]int64{55, 32, 43, 49, 52, 53, 54}, 54, 54, false},
		{"sequential cost, unknown probe", cost, 31,
			threshold(atLeast(5), asProbed, 7),
			[]int64{15, 7, 11, 9, 8}, 8, 8, false},
		// portfolio.descent: statuses only, bounds move to the midpoint.
		{"racing maximise", iso, 0, threshold(atMost(37), statusOnly, never),
			[]int64{50, 25, 37, 43, 40, 38}, 37, -1, true},
		{"racing maximise, everything satisfiable", usa, 0, threshold(atMost(100), statusOnly, never),
			[]int64{50, 75, 88, 94, 97, 99, 100}, 100, -1, true},
		{"racing maximise, unknown probe", iso, 0, threshold(atMost(37), statusOnly, 25),
			[]int64{50, 25, 12, 18, 21, 23, 24}, 24, -1, false},
		{"racing minimise", cost, 57, threshold(atLeast(20), statusOnly, never),
			[]int64{28, 14, 21, 18, 20, 19}, 20, -1, true},
		{"racing minimise, everything satisfiable", cost, 57, threshold(atLeast(0), statusOnly, never),
			[]int64{28, 14, 7, 3, 1, 0}, 0, -1, true},
		{"racing minimise, unknown probe", cost, 57, threshold(atLeast(20), statusOnly, 28),
			[]int64{28, 43, 36, 32, 30, 29}, 29, -1, false},
	} {
		q := core.Query{Optimise: tc.kind}
		var visited []int64
		value, best, exact := q.Bisect(tc.from, func(v int64) (smt.Status, *core.Design) {
			visited = append(visited, v)
			st, reach := tc.probe(v)
			if reach < 0 {
				return st, nil
			}
			// A design whose q.Value is reach, whatever the kind; the half
			// tenth keeps the slider scores clear of float rounding.
			score := (float64(reach) + 0.5) / 10
			return st, &core.Design{Isolation: score, Usability: score, Cost: reach}
		})
		got := int64(-1)
		if best != nil {
			got = best.Cost
		}
		if !reflect.DeepEqual(visited, tc.visited) || value != tc.value || got != tc.best || exact != tc.exact {
			t.Errorf("%s:\n got visited %v value %d best %d exact %v\nwant visited %v value %d best %d exact %v",
				tc.name, visited, value, got, exact, tc.visited, tc.value, tc.best, tc.exact)
		}
	}
}
