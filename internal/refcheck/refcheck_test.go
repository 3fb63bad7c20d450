package refcheck

import (
	"reflect"
	"slices"
	"testing"

	"configsynth/internal/smt"
)

// TestReferenceSolverKnownInstances pins the reference solver itself on
// hand-checkable formulas before it is trusted to judge the real one.
func TestReferenceSolverKnownInstances(t *testing.T) {
	contradiction := &Instance{Vars: 1, Clauses: [][]Lit{{1}, {-1}}}
	if Solve(contradiction) {
		t.Fatal("x ∧ ¬x must be unsat")
	}
	// x1 ∨ x2 with at-most 1·x1 + 1·x2 ≤ 1: sat, max objective x1+x2 = 1.
	in := &Instance{
		Vars:       2,
		Clauses:    [][]Lit{{1, 2}},
		AtMosts:    []AtMost{{Lits: []Lit{1, 2}, Weights: []int64{1, 1}, Bound: 1}},
		ObjLits:    []Lit{1, 2},
		ObjWeights: []int64{1, 1},
	}
	if !Solve(in) {
		t.Fatal("instance should be sat")
	}
	if min, max, ok := Optima(in); !ok || min != 1 || max != 1 {
		t.Fatalf("Optima = (%d, %d, %v), want (1, 1, true): the clause forces one true", min, max, ok)
	}
	// Assumption forcing x2 with weight-2 constraint 2·x2 ≤ 1: unsat.
	in2 := &Instance{
		Vars:        2,
		AtMosts:     []AtMost{{Lits: []Lit{2}, Weights: []int64{2}, Bound: 1}},
		Assumptions: []Lit{2},
	}
	if Solve(in2) {
		t.Fatal("assumption x2 against 2·x2 ≤ 1 must be unsat")
	}
	if !SolveUnder(in2, nil) {
		t.Fatal("the formula alone is satisfiable")
	}
	// Negative-polarity objective 3·¬x1 with x1 free: 0 to 3.
	in3 := &Instance{Vars: 1, ObjLits: []Lit{-1}, ObjWeights: []int64{3}}
	if min, max, ok := Optima(in3); !ok || min != 0 || max != 3 {
		t.Fatalf("Optima(3·¬x1) = (%d, %d, %v), want (0, 3, true)", min, max, ok)
	}
	if bad := Violations(in, []Lit{1}, func(v int) bool { return v == 2 }); len(bad) != 1 {
		t.Fatalf("model x2-only violates exactly the assumption, got %v", bad)
	}
}

func TestDecodeDeterministicAndTotal(t *testing.T) {
	data := GenBytes(42)
	if !reflect.DeepEqual(Decode(data), Decode(data)) {
		t.Fatal("Decode must be deterministic")
	}
	if !reflect.DeepEqual(Gen(42), Gen(42)) {
		t.Fatal("Gen must be deterministic")
	}
	for _, data := range [][]byte{nil, {}, {0}, {255}, {7, 7, 7}} {
		in := Decode(data)
		if in.Vars < 3 || in.Vars > 12 {
			t.Fatalf("Decode(%v).Vars = %d out of range", data, in.Vars)
		}
		pb := DecodePB(data)
		if len(pb.Clauses) != 0 {
			t.Fatalf("DecodePB must not emit clauses, got %d", len(pb.Clauses))
		}
	}
}

// diversified is the solver-config portfolio the differential runs
// under: the default search plus two deliberately different profiles,
// so a divergence that only one search order exposes still surfaces.
var diversified = []smt.SolverConfig{
	{},
	{Seed: 0x9E3779B97F4A7C15, RandomFreqMilli: 50, PhaseTrue: true, Restart: smt.RestartGeometric},
	{Seed: 7, RandomFreqMilli: 20, Restart: smt.RestartLuby},
}

// TestDifferentialAgainstReference is the harness's core guarantee: 600
// seeded mixed CNF+PB instances, each cross-checked against the
// brute-force reference for status, model soundness, core soundness,
// and core.Query.Bisect's optima, probes and exactness under injected
// Unknowns — with self-check hooks armed. Every third seed additionally
// runs under the diversified configurations.
func TestDifferentialAgainstReference(t *testing.T) {
	sawSat, sawUnsat, sawCore := false, false, false
	var cov coverage
	for seed := int64(0); seed < 600; seed++ {
		in := Gen(seed)
		if Solve(in) {
			sawSat = true
		} else {
			sawUnsat = true
			if SolveUnder(in, nil) {
				sawCore = true // unsat only because of the assumptions
			}
		}
		cfgs := diversified[:1]
		if seed%3 == 0 {
			cfgs = diversified
		}
		for ci, cfg := range cfgs {
			err := CheckStatus(in, cfg)
			if err == nil {
				err = checkOptimum(in, cfg, &cov)
			}
			if err != nil {
				t.Fatalf("seed %d config %d: %v", seed, ci, err)
			}
		}
	}
	// The generator must exercise all three differential regimes, and the
	// injections must have met Unknowns both ways — including descents
	// whose answer a Sat jump carried past an Unknown probe — or the
	// cross-checks above silently lose coverage.
	if !sawSat || !sawUnsat || !sawCore {
		t.Fatalf("generator coverage collapsed: sat=%v unsat=%v assumption-unsat=%v",
			sawSat, sawUnsat, sawCore)
	}
	if cov.budget == 0 || cov.wrapper == 0 || cov.jumped == 0 {
		t.Fatalf("injection coverage collapsed: %+v", cov)
	}
	// The cheap shapes must have met cheap Unknowns, attempts of every
	// status, and fallbacks to the full probes.
	if cov.cheapUnknown == 0 || cov.fallback == 0 || slices.Contains(cov.attempts[:], 0) {
		t.Fatalf("cheap-pass coverage collapsed: %+v", cov)
	}
	t.Logf("descents that met an Unknown: %+v", cov)
}

// TestDifferentialPBOnly stresses the pseudo-Boolean store alone — no
// clauses, up to 8 constraints per instance — across 200 seeds.
func TestDifferentialPBOnly(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		in := GenPB(seed)
		if err := Check(in, smt.SolverConfig{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestBruteForceGuard pins the enumeration cap.
func TestBruteForceGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for an instance above MaxVars")
		}
	}()
	Solve(&Instance{Vars: MaxVars + 1})
}
