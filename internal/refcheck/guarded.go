package refcheck

import (
	"fmt"

	"configsynth/internal/core"
	"configsynth/internal/smt"
)

// This file cross-validates the two ways internal/smt can enforce a
// pseudo-Boolean bound: baked into the solver permanently (AssertAtMost)
// versus guarded by a fresh assumption literal (AssertAtMostIf) that is
// passed to Check. The guarded form is what makes what-if sessions
// possible — thresholds become assumptions, so a warm solver re-solves a
// new threshold combination without re-encoding — and this differential
// is the evidence the two forms agree: statuses and optima must be
// bit-identical, models and cores are validated semantically against the
// brute-force reference (the assignments themselves may legitimately
// differ, since guard variables shift the search), and the guarded form
// must replay bit-identically run over run, which is the determinism the
// session rebuild design rests on.

// CheckGuarded runs the guarded-vs-baked differential on one instance:
// Check status against the reference (plus model/core soundness) for
// both encodings and for a replay of the guarded one, which must also
// reproduce its model variable for variable, and then a Bisect descent
// to each optimum for both encodings.
func CheckGuarded(in *Instance, cfg smt.SolverConfig) error {
	baked, g, replay := Build(in, cfg), BuildGuarded(in, cfg), BuildGuarded(in, cfg)
	for _, b := range []*built{baked, g, replay} {
		if err := checkStatus(in, b); err != nil {
			return err
		}
	}
	// Replay determinism: the second guarded build under the same config
	// reproduces the first bit for bit — its status matched the reference
	// too, and on Sat it must assign every instance variable the same.
	// Sessions extract results from freshly built solvers on every query;
	// this is the property that makes those extractions reproducible.
	for v := 1; g.sol.HasModel() && v <= in.Vars; v++ {
		if g.value()(v) != replay.value()(v) {
			return fmt.Errorf("refcheck: guarded replay model differs at x%d on %v", v, in)
		}
	}

	// Both encodings descend to the brute-force optimum in both
	// coordinates, each descent checked probe by probe.
	ref := newReference(in, nil)
	for _, q := range []core.Query{maximise, minimise} {
		for _, b := range []*built{baked, g} {
			if _, err := ref.descend(b, q, designs, -1, false); err != nil {
				return err
			}
		}
	}
	return nil
}
