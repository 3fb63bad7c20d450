package refcheck

import (
	"errors"
	"reflect"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/portfolio"
	"configsynth/internal/smt"
)

// TestGuardedThresholdDifferential is the what-if session guarantee at
// the solver level: 250 seeded mixed CNF+PB instances, each encoded
// both ways — at-most constraints baked in versus held behind
// assumption guards — must agree bit for bit on status and on
// Maximize/Minimize optima, produce sound models and cores, and replay
// deterministically. Every third seed additionally runs under the
// diversified solver configurations.
func TestGuardedThresholdDifferential(t *testing.T) {
	sawSat, sawUnsat := false, false
	for seed := int64(0); seed < 250; seed++ {
		in := Gen(seed)
		if Solve(in) {
			sawSat = true
		} else {
			sawUnsat = true
		}
		cfgs := diversified[:1]
		if seed%3 == 0 {
			cfgs = diversified
		}
		for ci, cfg := range cfgs {
			if err := CheckGuarded(in, cfg); err != nil {
				t.Fatalf("seed %d config %d: %v", seed, ci, err)
			}
		}
	}
	if !sawSat || !sawUnsat {
		t.Fatalf("generator coverage collapsed: sat=%v unsat=%v", sawSat, sawUnsat)
	}
}

// TestGuardedCoreBlamesConstraint pins the shape of a guarded core on a
// hand-built instance: forcing both literals of a tight at-most must
// produce a core that names the guard, and the reduced formula check
// must reject a core that omits it.
func TestGuardedCoreBlamesConstraint(t *testing.T) {
	in := &Instance{
		Vars:        2,
		AtMosts:     []AtMost{{Lits: []Lit{1, 2}, Weights: []int64{1, 1}, Bound: 1}},
		Assumptions: []Lit{1, 2},
	}
	g := BuildGuarded(in, smt.SolverConfig{})
	if st := g.sol.Check(g.assumptions()...); st != smt.Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
	lits, atmosts, err := coreOf(in, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(atmosts) != 1 || atmosts[0] != 0 {
		t.Fatalf("core must blame the at-most constraint, got atmosts=%v lits=%v", atmosts, lits)
	}
	// Without the constraint the cored literals alone are satisfiable —
	// exactly the case the reduced-formula soundness check exists for.
	if !SolveUnder(&Instance{Vars: in.Vars}, lits) {
		t.Fatal("cored literals must be satisfiable once the blamed constraint is removed")
	}
}

// TestSessionSliderSweepMatchesSequential is the portfolio-vs-sequential
// differential on a threshold slider sweep: one warm session is
// retargeted across a grid of isolation/usability thresholds, and at
// every point its answers must be bit-identical to a sequential
// synthesizer and to a fresh racing portfolio solving that point from
// scratch. This is the determinism contract /v1/whatif relies on: a
// reused session may be faster, never different.
func TestSessionSliderSweepMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := genProblem(t, seed, core.Options{})
		ses1, err := portfolio.NewSession(p, 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ses3, err := portfolio.NewSession(p, 3)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, iso := range []int{10, 30, 50, 80} {
			for _, usa := range []int{20, 40} {
				q := *p
				q.Thresholds.IsolationTenths = iso
				q.Thresholds.UsabilityTenths = usa
				if err := ses1.Retarget(&q); err != nil {
					t.Fatalf("seed %d iso=%d usa=%d: Retarget K=1: %v", seed, iso, usa, err)
				}
				if err := ses3.Retarget(&q); err != nil {
					t.Fatalf("seed %d iso=%d usa=%d: Retarget K=3: %v", seed, iso, usa, err)
				}
				seq, err := portfolio.New(&q, 1) // sequential: plain core.Synthesizer
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				scratch, err := portfolio.NewRacing(&q, 2)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}

				dSeq, errSeq := seq.Solve()
				dScr, errScr := scratch.Solve()
				d1, err1 := ses1.Solve()
				d3, err3 := ses3.Solve()
				for who, err := range map[string]error{"scratch": errScr, "session K=1": err1, "session K=3": err3} {
					if (errSeq == nil) != (err == nil) {
						t.Fatalf("seed %d iso=%d usa=%d: sequential err %v but %s err %v", seed, iso, usa, errSeq, who, err)
					}
				}
				if errSeq != nil {
					// Conflict cores are semantic: identical across all paths.
					var want, got *core.ThresholdConflictError
					if !errors.As(errSeq, &want) {
						continue // budget/interrupt errors carry no core to compare
					}
					for who, err := range map[string]error{"scratch": errScr, "session K=1": err1, "session K=3": err3} {
						if !errors.As(err, &got) || !reflect.DeepEqual(want.Core, got.Core) {
							t.Fatalf("seed %d iso=%d usa=%d: conflict cores diverge (sequential vs %s): %v vs %v",
								seed, iso, usa, who, errSeq, err)
						}
					}
					continue
				}
				sameDesign(t, seed, "sweep Solve scratch", dSeq, dScr)
				sameDesign(t, seed, "sweep Solve session K=1", dSeq, d1)
				sameDesign(t, seed, "sweep Solve session K=3", dSeq, d3)
				verifyAt(t, seed, &q, q.Thresholds, d1)
			}
		}
	}
}
