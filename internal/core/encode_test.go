package core_test

import (
	"errors"
	"runtime"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/netgen"
	"configsynth/internal/sat"
	"configsynth/internal/smt"
)

// encodeInstances are the three problems whose encoding is pinned: two
// netgen instances under the solver benchmarks' satisfiable sliders and
// the paper's running example under its own.
func encodeInstances(t testing.TB) map[string]*core.Problem {
	t.Helper()
	out := map[string]*core.Problem{"paper": netgen.PaperExample()}
	for name, c := range map[string]netgen.Config{
		"netgen20/seed1":  {Hosts: 20, Routers: 10, MaxServices: 3, CRFraction: 0.10, Seed: 1},
		"netgen50/seed50": {Hosts: 50, Routers: 10, MaxServices: 3, CRFraction: 0.10, Seed: 50},
	} {
		c.Thresholds = core.Thresholds{IsolationTenths: 30, UsabilityTenths: 50, CostBudget: int64(c.Hosts) * 4}
		p, err := netgen.Generate(c)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = p
	}
	return out
}

// TestEncodeMatchesRecordedParent pins the encoding: the digests and
// counters below were recorded at the commit before the encode became a
// bulk load (reserved capacity, dense variable tables, chunked watch
// lists, slab names) and must never move with how the encoder allocates.
// A digest covers clauses in list order with their crefs and literals in
// arena order, every watch list, the root trail and the PB store — once
// for the pristine template, once with the problem's own three guards —
// and the statistics after Solve cover the search that state produces.
// The paper example's values were re-recorded when networks began
// numbering their links in sorted endpoint order, which renumbers that
// example's links.
func TestEncodeMatchesRecordedParent(t *testing.T) {
	recorded := map[string]struct {
		template, instantiated string
		stats                  core.ModelStats
	}{
		"paper": {
			"d169fb260b6f96b49cfec784d223114fa36b2a582abef2caa529f22a3f1bb299",
			"dc96d654c5ccb7838b5559b890ad81f23a99b14b141893406c31e17cdc68c8a4",
			core.ModelStats{Flows: 90, HostPairs: 45, Routes: 174, Vars: 713, Clauses: 2292,
				PBConstraints: 3, PBTerms: 620,
				EstimatedBytes: 280544, Counters: sat.Counters{Conflicts: 42, Decisions: 143, Propagations: 950,
					TheoryProps: 78, LearntLitsSum: 12906, RemovedSat: 48}},
		},
		"netgen20/seed1": {
			"0b47d7dd31e200db061130e1bba238741f680daa6f63f203a35dcdc535c5872a",
			"2dd1d9a01d3fed899acdcb1bd401a51c6052e7ea9ed8739563b75160881d13a3",
			core.ModelStats{Flows: 732, HostPairs: 190, Routes: 336, Vars: 4542, Clauses: 12964,
				PBConstraints: 3, PBTerms: 4511,
				EstimatedBytes: 1643496, Counters: sat.Counters{Conflicts: 2, Decisions: 148, Propagations: 4845,
					TheoryProps: 220, LearntLitsSum: 6035, RemovedSat: 344}},
		},
		"netgen50/seed50": {
			"2caf18a8b1e709638409a3e17ebf4a881ef9e10088b7045b4ffe2a2e1cd9fea3",
			"b5bc3d11f78f7d3b3ede01118959215848d00f85cc64d3dc95ce1444b6606974",
			core.ModelStats{Flows: 4914, HostPairs: 1225, Routes: 1225, Vars: 29709, Clauses: 82076,
				PBConstraints: 3, PBTerms: 29720,
				EstimatedBytes: 10493952, Counters: sat.Counters{Conflicts: 2, Decisions: 567, Propagations: 31592,
					TheoryProps: 1475, LearntLitsSum: 41784, RemovedSat: 2140}},
		},
	}
	for name, p := range encodeInstances(t) {
		tmpl, err := core.NewTemplate(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := recorded[name]
		got.template = tmpl.Digest()
		syn, err := tmpl.Synthesizer(p.Thresholds, p.Options.Solver)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got.instantiated = syn.Digest()
		if _, err := syn.Solve(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got.stats = syn.Stats()
		if want := recorded[name]; got != want {
			t.Errorf("%s: encoding moved:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestEncodeAllocBudget holds the encode to at most one allocation per
// variable on the 50-host instance (it took about fourteen when every
// variable had its own name string and map entries and every clause its
// own scratch): what remains are the route enumeration, the watch lists
// that outgrow their seed and a few dozen tables. The other half of the
// budget is memory: what the encoder reserves is an upper bound of what
// it stores, and within two per cent of it.
func TestEncodeAllocBudget(t *testing.T) {
	p := encodeInstances(t)["netgen50/seed50"]
	var vars, clauses int
	restore := core.HookReserve(func(v, c int) bool { vars, clauses = v, c; return true })
	tmpl, err := core.NewTemplate(p)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	st := tmpl.Stats()
	for _, c := range []struct {
		what             string
		reserved, stored int
	}{{"variables", vars, st.Vars}, {"clauses", clauses, st.Clauses}} {
		if c.reserved < c.stored || c.reserved > c.stored+c.stored/50 {
			t.Errorf("reserved %d %s for the %d stored, want an upper bound within 2%%", c.reserved, c.what, c.stored)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := core.NewTemplate(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(st.Vars) {
		t.Errorf("NewTemplate: %.0f allocations for %d variables (%.2f per variable), budget 1.0",
			allocs, st.Vars, allocs/float64(st.Vars))
	}
}

// TestReserveIsOnlyAHint encodes with the capacity reservation stubbed
// out and checks that the template is the one a reserving encode builds,
// and that Solve, MinCost and Explain answer with the same designs and
// counters: the reservation moves capacity, never state.
func TestReserveIsOnlyAHint(t *testing.T) {
	p := cloneProblem(t, 20, 1)
	for regime, th := range cloneThresholds(20) {
		p.Thresholds = th
		reserved, err := core.NewTemplate(p)
		if err != nil {
			t.Fatal(err)
		}
		restore := core.HookReserve(func(int, int) bool { return false })
		bare, err := core.NewTemplate(p)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if a, b := reserved.Digest(), bare.Digest(); a != b {
			t.Fatalf("%s: template digest %s with the reservation, %s without", regime, a, b)
		}
		for _, query := range []string{"Solve", "MinCost", "Explain"} {
			with, err := reserved.Clone(th, smt.SolverConfig{})
			if err != nil {
				t.Fatal(err)
			}
			without, err := bare.Clone(th, smt.SolverConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if want, got := ask(with, query, th), ask(without, query, th); !same(want, got) {
				t.Errorf("%s %s: answers differ:\nreserved %+v\nstubbed  %+v", regime, query, want, got)
			}
		}
	}
}

// TestNewTemplateRefusesBeforeAllocating is where the arena cliff bites,
// and when: an encoding whose at-most-one clauses alone exceed the clause
// arena's capacity is refused with the typed ErrModelTooLarge before the
// first clause is stored — not after the arena has doubled its way up to
// the cap — and one that fits under that lower bound is not refused by
// it.
func TestNewTemplateRefusesBeforeAllocating(t *testing.T) {
	p := cloneProblem(t, 20, 1)
	full, err := core.NewTemplate(p)
	if err != nil {
		t.Fatal(err)
	}
	flows, patterns := full.Stats().Flows, len(p.Catalog.Patterns())
	lowerBound := 4 * flows * patterns * (patterns - 1) / 2

	q := *p
	q.Options.Solver.ArenaCapWords = lowerBound - 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = core.NewTemplate(&q)
	runtime.ReadMemStats(&after)
	var overflow *sat.ArenaOverflowError
	if !errors.Is(err, core.ErrModelTooLarge) || !errors.As(err, &overflow) {
		t.Fatalf("arena cap %d under a lower bound of %d words: err = %v, want an ArenaOverflowError wrapping ErrModelTooLarge",
			lowerBound-1, lowerBound, err)
	}
	if overflow.Need != lowerBound || overflow.Cap != lowerBound-1 {
		t.Errorf("overflow reports need %d under cap %d, want %d under %d", overflow.Need, overflow.Cap, lowerBound, lowerBound-1)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("the refused encode allocated %d bytes, want under 1 MB", grew)
	}

	// At the bound itself the check lets the encode start; it then fails
	// where it really runs out, with the same typed error.
	q.Options.Solver.ArenaCapWords = lowerBound
	if _, err := core.NewTemplate(&q); !errors.Is(err, core.ErrModelTooLarge) {
		t.Fatalf("arena cap %d: err = %v, want ErrModelTooLarge from the overflowing clause", lowerBound, err)
	}
	// And a cap the whole encoding fits is not refused.
	q.Options.Solver.ArenaCapWords = 16 * lowerBound
	if _, err := core.NewTemplate(&q); err != nil {
		t.Fatalf("arena cap %d: %v", 16*lowerBound, err)
	}
}
