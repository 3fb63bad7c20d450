package refcheck

// Go native fuzz targets: each decodes the fuzzer's byte string into a
// formula (Decode/DecodePB are total, so every input is meaningful) and
// runs a differential check against the brute-force reference with the
// solver's self-check hooks armed. Any status divergence, unsound
// model, unsound core, wrong optimum, or solver panic is a crash.
//
// CI runs each target as a short smoke (-fuzztime=20s); to reproduce a
// failure locally, re-run the testdata corpus file the fuzzer saved:
//
//	go test ./internal/refcheck -run 'FuzzSolve/<hash>'

import (
	"testing"

	"configsynth/internal/smt"
)

func seedCorpus(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(GenBytes(seed))
	}
}

// FuzzSolve differentials Check: status, model soundness, and unsat-core
// soundness on mixed CNF+PB instances.
func FuzzSolve(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := CheckStatus(Decode(data), smt.SolverConfig{}); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzBisect differentials core.Query.Bisect: optima in both
// coordinates and both prober shapes, every probe's status, the models
// the answers are claimed from, and exactness under injected Unknowns.
func FuzzBisect(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := CheckOptimum(Decode(data), smt.SolverConfig{}); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzPB drives the pseudo-Boolean store alone (no clauses, more
// constraints) through the full battery, under both the default and a
// diversified search.
func FuzzPB(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := DecodePB(data)
		if err := Check(in, smt.SolverConfig{}); err != nil {
			t.Fatal(err)
		}
		if err := Check(in, smt.SolverConfig{Seed: 1, PhaseTrue: true, Restart: smt.RestartGeometric}); err != nil {
			t.Fatal(err)
		}
	})
}
