package core_test

import (
	"fmt"
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
		value, best, exact := q.Bisect(tc.from, core.Probes{Full: func(v int64) (smt.Status, *core.Design) {
			visited = append(visited, v)
			st, reach := tc.probe(v)
			return st, design(reach)
		}})
		if got := reached(best); !reflect.DeepEqual(visited, tc.visited) || value != tc.value || got != tc.best || exact != tc.exact {
			t.Errorf("%s:\n got visited %v value %d best %d exact %v\nwant visited %v value %d best %d exact %v",
				tc.name, visited, value, got, exact, tc.visited, tc.value, tc.best, tc.exact)
		}
	}

	// portfolio.optimise: a cheap pass of status probes, where an Unknown
	// proves nothing and only raises the floor; the canonical attempt at
	// the tightest value left open, whose Sat is the answer with its
	// design; else full status probes between the proven bounds. Visits
	// are "c" for cheap, "a" for the attempt, bare for full.
	cheapAt := func(sat, decided func(int64) bool) func(int64) smt.Status {
		return func(v int64) smt.Status {
			switch {
			case !decided(v):
				return smt.Unknown
			case sat(v):
				return smt.Sat
			}
			return smt.Unsat
		}
	}
	outside := func(a, b int64) func(int64) bool { return func(v int64) bool { return v < a || v > b } }
	blind := func(int64) bool { return false }
	sighted := func(int64) bool { return true }
	for _, tc := range []struct {
		name    string
		kind    core.ThresholdKind
		from    int64
		cheap   func(v int64) smt.Status
		attempt smt.Status
		probe   script
		visited []string
		value   int64
		best    int64 // what the attempt's design reached; -1 if it is not the answer
		exact   bool
	}{
		{"attempt Sat at the bound the cheap pass left", iso, 0, cheapAt(atMost(37), outside(30, 37)), smt.Sat,
			threshold(atMost(37), statusOnly, never),
			[]string{"c50", "c25", "c37", "c43", "c40", "c38", "a37"}, 37, 37, true},
		{"attempt Sat, cost", cost, 57, cheapAt(atLeast(20), outside(20, 24)), smt.Sat,
			threshold(atLeast(20), statusOnly, never),
			[]string{"c28", "c14", "c21", "c18", "c20", "c19", "a20"}, 20, 20, true},
		{"attempt Unknown falls back between the proven bounds", iso, 0, cheapAt(atMost(37), outside(30, 37)), smt.Unknown,
			threshold(atMost(37), statusOnly, never),
			[]string{"c50", "c25", "c37", "c43", "c40", "c38", "a37", "31", "34", "36", "37"}, 37, -1, true},
		{"attempt Unsat lowers the bound by one", iso, 0, cheapAt(atMost(37), outside(30, 45)), smt.Unsat,
			threshold(atMost(37), statusOnly, never),
			[]string{"c50", "c25", "c37", "c43", "c46", "c44", "c45", "a45", "35", "40", "37", "38"}, 37, -1, true},
		{"blind cheap pass, attempt Unsat at the top", iso, 0, cheapAt(atMost(37), blind), smt.Unsat,
			threshold(atMost(37), statusOnly, never),
			[]string{"c50", "c75", "c88", "c94", "c97", "c99", "c100", "a100", "50", "25", "37", "43", "40", "38"}, 37, -1, true},
		{"a full Unknown in the fallback is inexact, a cheap one is not", iso, 0, cheapAt(atMost(37), outside(30, 37)), smt.Unknown,
			threshold(atMost(37), statusOnly, 34),
			[]string{"c50", "c25", "c37", "c43", "c40", "c38", "a37", "31", "34", "32", "33"}, 33, -1, false},
		{"cheap Sat up to the top, no attempt", usa, 0, cheapAt(atMost(100), sighted), smt.Unsat,
			threshold(atMost(100), statusOnly, never),
			[]string{"c50", "c75", "c88", "c94", "c97", "c99", "c100"}, 100, -1, true},
	} {
		q := core.Query{Optimise: tc.kind}
		var visited []string
		value, best, exact := q.Bisect(tc.from, core.Probes{
			Cheap: func(v int64) smt.Status {
				visited = append(visited, fmt.Sprintf("c%d", v))
				return tc.cheap(v)
			},
			Attempt: func(v int64) (smt.Status, *core.Design) {
				visited = append(visited, fmt.Sprintf("a%d", v))
				// An attempt's model is its own: whatever it reached, it
				// is handed over with every status.
				return tc.attempt, design(v)
			},
			Full: func(v int64) (smt.Status, *core.Design) {
				visited = append(visited, fmt.Sprint(v))
				st, reach := tc.probe(v)
				return st, design(reach)
			},
		})
		if got := reached(best); !reflect.DeepEqual(visited, tc.visited) || value != tc.value || got != tc.best || exact != tc.exact {
			t.Errorf("%s:\n got visited %v value %d best %d exact %v\nwant visited %v value %d best %d exact %v",
				tc.name, visited, value, got, exact, tc.visited, tc.value, tc.best, tc.exact)
		}
	}
}

// design returns a design whose Value is reach, whatever the kind (nil
// for reach < 0: a prober with a status only); the half tenth keeps the
// slider scores clear of float rounding.
func design(reach int64) *core.Design {
	if reach < 0 {
		return nil
	}
	score := (float64(reach) + 0.5) / 10
	return &core.Design{Isolation: score, Usability: score, Cost: reach}
}

// reached is what a design returned by design reached; -1 for none.
func reached(d *core.Design) int64 {
	if d == nil {
		return -1
	}
	return d.Cost
}

// TestValueReadsWholeTenths: a slider score that is a whole tenth reads
// as that tenth, although its float falls just short of it — a
// usability of exactly 9.4 is 9.399999999999999 — and a score between
// two tenths reads as the lower. Scores are formed as the model forms
// them (networkScores), from integer sums; the tenths they stand for are
// computed from the same sums in integers.
func TestValueReadsWholeTenths(t *testing.T) {
	usa := core.Query{Optimise: core.ThresholdUsability}
	iso := core.Query{Optimise: core.ThresholdIsolation}
	if got := usa.Value(&core.Design{Usability: 10 * (1 - float64(6)/float64(100*1))}); got != 94 {
		t.Fatalf("a usability of 9.4 reads as %d tenths, want 94", got)
	}
	for sumRanks := int64(1); sumRanks <= 300; sumRanks++ {
		for loss := int64(0); loss <= 100*sumRanks; loss++ {
			// U = 10·(1 − loss/(100·Σranks)); in tenths 100 − loss/Σranks,
			// rounded down.
			score := 10 * (1 - float64(loss)/float64(100*sumRanks))
			want := 100 - (loss+sumRanks-1)/sumRanks
			if got := usa.Value(&core.Design{Usability: score}); got != want {
				t.Fatalf("loss %d over Σranks %d: usability %v reads as %d tenths, want %d", loss, sumRanks, score, got, want)
			}
		}
	}
	for maxIso := int64(1); maxIso <= 300; maxIso++ {
		for sum := int64(0); sum <= maxIso; sum++ {
			// I = 10·sum/maxIso; in tenths 100·sum/maxIso, rounded down.
			score := 10 * float64(sum) / float64(maxIso)
			if got, want := iso.Value(&core.Design{Isolation: score}), 100*sum/maxIso; got != want {
				t.Fatalf("%d of %d: isolation %v reads as %d tenths, want %d", sum, maxIso, score, got, want)
			}
		}
	}
}
