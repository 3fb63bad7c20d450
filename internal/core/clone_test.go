package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/netgen"
	"configsynth/internal/portfolio"
	"configsynth/internal/smt"
)

func cloneProblem(t testing.TB, hosts int, seed int64) *core.Problem {
	t.Helper()
	// Conflict budgets keep MinCost descents and Explain's relaxation
	// checks in the seconds; budget-bound answers are as deterministic as
	// exact ones, so they compare just the same. Under these budgets
	// every unsat-regime Explain ends at its first undecided re-check;
	// see explainBudget.
	opts := core.Options{SolverBudget: 300, ProbeBudget: 30}
	if hosts >= 50 {
		opts = core.Options{SolverBudget: 100, ProbeBudget: 10}
	}
	p, err := netgen.Generate(netgen.Config{
		Hosts: hosts, Routers: 10, MaxServices: 3, CRFraction: 0.10, Seed: seed,
		Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// cloneThresholds returns a satisfiable and an unsatisfiable slider
// setting for a netgen instance of the given size (the solver
// benchmarks' two regimes).
func cloneThresholds(hosts int) map[string]core.Thresholds {
	return map[string]core.Thresholds{
		"sat":   {IsolationTenths: 30, UsabilityTenths: 50, CostBudget: int64(hosts) * 4},
		"unsat": {IsolationTenths: 90, UsabilityTenths: 80, CostBudget: int64(hosts) * 10},
	}
}

// explainBudget is the SolverBudget of the Explain queries under the
// reference solver configuration (worker 0). Under it every
// unsat-regime problem's re-checks decide, in 2.8 k–14.5 k conflicts an
// Explain, so the relaxation lists themselves are compared. The
// diversified configurations keep cloneProblem's budget: under some of
// them a re-check stays undecided past 300 000 conflicts.
const explainBudget = 30000

// answer is everything one query reports, plus the counters after it.
type answer struct {
	Design *core.Design
	Value  int64
	Expl   *core.Explanation
	Err    string
	Core   []core.ThresholdKind
	Stats  core.ModelStats
}

// same compares two answers, designs included down to the last bit of
// every per-host score.
func same(a, b answer) bool { return reflect.DeepEqual(a, b) }

func ask(syn *core.Synthesizer, query string, th core.Thresholds) answer {
	var a answer
	var err error
	switch query {
	case "Solve":
		a.Design, err = syn.Solve()
	case "MinCost":
		a.Value, a.Design, err = syn.MinCost(th.IsolationTenths, th.UsabilityTenths)
	case "Explain":
		a.Expl, err = syn.Explain()
	}
	if err != nil {
		a.Err = err.Error()
		var tc *core.ThresholdConflictError
		if errors.As(err, &tc) {
			a.Core = tc.Core
		}
	}
	a.Stats = syn.Stats()
	return a
}

// TestCloneMatchesFreshEncode is the clone contract: a clone of a
// pristine template is indistinguishable from a synthesizer encoded
// from scratch for the same problem and solver configuration — same
// model shape and counters before any search, and the same answer
// (design, optimum, explanation or unsat core) with the same conflict,
// decision and propagation counts after Solve, MinCost and Explain.
func TestCloneMatchesFreshEncode(t *testing.T) {
	sizes := []struct {
		hosts int
		seeds []int64
	}{{8, []int64{1, 2, 3}}, {20, []int64{1, 2}}, {50, []int64{50}}}
	for _, size := range sizes {
		if size.hosts == 50 && testing.Short() {
			continue
		}
		for _, seed := range size.seeds {
			base := cloneProblem(t, size.hosts, seed)
			for regime, th := range cloneThresholds(size.hosts) {
				p := *base
				p.Thresholds = th
				tmpl, err := core.NewTemplate(&p)
				if err != nil {
					t.Fatal(err)
				}
				deciding := p
				deciding.Options.SolverBudget = explainBudget
				decidingTmpl, err := core.NewTemplate(&deciding)
				if err != nil {
					t.Fatal(err)
				}
				for w := 0; w < 4; w++ {
					cfg := portfolio.WorkerConfig(w)
					for _, query := range []string{"Solve", "MinCost", "Explain"} {
						q, from := p, tmpl
						decides := query == "Explain" && w == 0
						if decides {
							q, from = deciding, decidingTmpl
						}
						q.Options.Solver = cfg
						name := fmt.Sprintf("hosts=%d seed=%d %s worker=%d %s", size.hosts, seed, regime, w, query)
						fresh, err := core.NewSynthesizer(&q)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						clone, err := from.Clone(th, cfg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if f, c := fresh.Stats(), clone.Stats(); f != c {
							t.Fatalf("%s: stats before search differ:\nfresh %+v\nclone %+v", name, f, c)
						}
						want, got := ask(fresh, query, th), ask(clone, query, th)
						if !same(want, got) {
							t.Fatalf("%s: clone diverges from a fresh encode:\nfresh %+v\nclone %+v", name, want, got)
						}
						if decides && regime == "unsat" && (want.Expl == nil || len(want.Expl.Relaxations) == 0) {
							t.Fatalf("%s: no relaxation to compare (%s)", name, want.Err)
						}
					}
				}
			}
		}
	}
}

// TestCloneIsolation searches four clones of one template at once (run
// under -race: a clone must not alias anything search mutates) and then
// checks that the template is untouched — same counters, same root
// assignment, and a clone taken afterwards answers exactly like one
// taken before — also once the earlier clones are garbage.
func TestCloneIsolation(t *testing.T) {
	p := cloneProblem(t, 8, 2)
	p.Thresholds = core.Thresholds{IsolationTenths: 30, UsabilityTenths: 50, CostBudget: 32}
	tmpl, err := core.NewTemplate(p)
	if err != nil {
		t.Fatal(err)
	}
	statsBefore, rootBefore := tmpl.Stats(), tmpl.RootAssigned()

	first, err := tmpl.Clone(p.Thresholds, smt.SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := ask(first, "MinCost", p.Thresholds)
	if want.Err != "" {
		t.Fatalf("reference MinCost: %s", want.Err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := *p
			q.Thresholds.IsolationTenths = 20 + 10*w // distinct guards per clone
			c, err := tmpl.Clone(q.Thresholds, portfolio.WorkerConfig(w))
			if err != nil {
				t.Error(err)
				return
			}
			if a := ask(c, "MinCost", q.Thresholds); a.Err != "" {
				t.Errorf("worker %d: %s", w, a.Err)
			}
			if a := ask(c, "Solve", q.Thresholds); a.Err != "" {
				t.Errorf("worker %d: %s", w, a.Err)
			}
		}(w)
	}
	wg.Wait()

	check := func(when string) {
		t.Helper()
		if s := tmpl.Stats(); s != statsBefore {
			t.Fatalf("%s: template counters moved:\nbefore %+v\nafter  %+v", when, statsBefore, s)
		}
		if r := tmpl.RootAssigned(); r != rootBefore {
			t.Fatalf("%s: template root assignment grew from %d to %d literals", when, rootBefore, r)
		}
		c, err := tmpl.Clone(p.Thresholds, smt.SolverConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if got := ask(c, "MinCost", p.Thresholds); !same(want, got) {
			t.Fatalf("%s: a fresh clone no longer answers like the first one:\nfirst %+v\nnow   %+v", when, want, got)
		}
	}
	check("after concurrent searches")
	first = nil
	runtime.GC()
	check("after the clones were collected")
}

// TestCloneArenaCap: a clone configured with an arena cap the encoding
// does not fit reports the typed capacity error a from-scratch encode
// under that cap reports, instead of handing out a solver whose next
// allocation panics.
func TestCloneArenaCap(t *testing.T) {
	p := cloneProblem(t, 8, 1)
	tmpl, err := core.NewTemplate(p)
	if err != nil {
		t.Fatal(err)
	}
	small := smt.SolverConfig{ArenaCapWords: 64}
	if _, err := tmpl.Clone(p.Thresholds, small); !errors.Is(err, core.ErrModelTooLarge) {
		t.Fatalf("Clone under a 64-word arena cap: err = %v, want ErrModelTooLarge", err)
	}
	q := *p
	q.Options.Solver = small
	if _, err := core.NewSynthesizer(&q); !errors.Is(err, core.ErrModelTooLarge) {
		t.Fatalf("NewSynthesizer under a 64-word arena cap: err = %v, want ErrModelTooLarge", err)
	}
	if _, err := tmpl.Clone(p.Thresholds, smt.SolverConfig{}); err != nil {
		t.Fatalf("the failed clone must leave the template usable: %v", err)
	}
}

// TestSpentTemplateIsTheClone: a template spent as a synthesizer under
// (th, cfg) is state for state the clone it replaces — the same digest
// of clause database, watches, root trail and PB store, the same counters
// — and answers every query as that clone does, for every worker
// configuration. Spending it under an arena cap it does not fit fails as
// Clone fails and leaves it unspent.
func TestSpentTemplateIsTheClone(t *testing.T) {
	for _, size := range []struct {
		hosts int
		seed  int64
	}{{8, 1}, {8, 2}, {20, 1}} {
		base := cloneProblem(t, size.hosts, size.seed)
		for regime, th := range cloneThresholds(size.hosts) {
			p := *base
			p.Thresholds = th
			for w := 0; w < 4; w++ {
				cfg := portfolio.WorkerConfig(w)
				for _, query := range []string{"Solve", "MinCost", "Explain"} {
					name := fmt.Sprintf("hosts=%d seed=%d %s worker=%d %s", size.hosts, size.seed, regime, w, query)
					kept, err := core.NewTemplate(&p)
					if err != nil {
						t.Fatal(err)
					}
					spendable, err := core.NewTemplate(&p)
					if err != nil {
						t.Fatal(err)
					}
					clone, err := kept.Clone(th, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					spent, err := spendable.Synthesizer(th, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if c, s := clone.Digest(), spent.Digest(); c != s {
						t.Fatalf("%s: digests differ: clone %s, spent %s", name, c, s)
					}
					if c, s := clone.Stats(), spent.Stats(); c != s {
						t.Fatalf("%s: stats before search differ:\nclone %+v\nspent %+v", name, c, s)
					}
					if want, got := ask(clone, query, th), ask(spent, query, th); !same(want, got) {
						t.Fatalf("%s: the spent template diverges from the clone:\nclone %+v\nspent %+v", name, want, got)
					}
				}
			}
		}
	}

	p := cloneProblem(t, 8, 1)
	tmpl, err := core.NewTemplate(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmpl.Synthesizer(p.Thresholds, smt.SolverConfig{ArenaCapWords: 64}); !errors.Is(err, core.ErrModelTooLarge) {
		t.Fatalf("Synthesizer under a 64-word arena cap: err = %v, want ErrModelTooLarge", err)
	}
	if _, err := tmpl.Clone(p.Thresholds, smt.SolverConfig{}); err != nil {
		t.Fatalf("the failed Synthesizer must leave the template unspent: %v", err)
	}
	if _, err := tmpl.Synthesizer(p.Thresholds, smt.SolverConfig{}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of a spent template did not panic")
		}
	}()
	tmpl.Clone(p.Thresholds, smt.SolverConfig{})
}
