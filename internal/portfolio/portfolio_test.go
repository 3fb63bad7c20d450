package portfolio

import (
	"context"
	"reflect"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/netgen"
	"configsynth/internal/smt"
	"configsynth/internal/usability"
)

func mustRacing(t *testing.T, p *core.Problem, workers int) *Solver {
	t.Helper()
	s, err := NewRacing(p, workers)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// smallPaperExample trims the paper's running example to its first five
// hosts. The determinism guarantee for optimization descents holds in
// the exact regime (no probe exhausts its conflict budget); the full
// 10-host instance leaves that regime under the default probe budget,
// so descent determinism is asserted on this easier instance — with
// Design.Exact checked to prove the regime assumption — while plain
// satisfiability determinism is asserted on the full instance.
func smallPaperExample() *core.Problem {
	p := netgen.PaperExample()
	hosts := p.Network.Hosts()[:5]
	keep := make(map[usability.Flow]bool)
	var flows []usability.Flow
	for _, f := range p.Flows {
		ok := false
		for _, h := range hosts {
			if f.Src == h {
				ok = true
				break
			}
		}
		if !ok {
			continue
		}
		ok = false
		for _, h := range hosts {
			if f.Dst == h {
				ok = true
				break
			}
		}
		if !ok {
			continue
		}
		flows = append(flows, f)
		keep[f] = true
	}
	reqs := usability.NewRequirements()
	for _, f := range p.Requirements.All() {
		if keep[f] {
			reqs.Require(f)
		}
	}
	p.Flows = flows
	p.Requirements = reqs
	return p
}

// sameDesign asserts two designs agree on everything the portfolio
// promises to keep deterministic: scores, flow patterns, and pruned
// placements. Scores must be bit-identical — they are computed from the
// same canonical model by the same arithmetic.
func sameDesign(t *testing.T, label string, a, b *core.Design) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("%s: nil design (a=%v b=%v)", label, a == nil, b == nil)
	}
	if a.Isolation != b.Isolation || a.Usability != b.Usability || a.Cost != b.Cost {
		t.Errorf("%s: scores differ: (%v,%v,%v) vs (%v,%v,%v)", label,
			a.Isolation, a.Usability, a.Cost, b.Isolation, b.Usability, b.Cost)
	}
	if !reflect.DeepEqual(a.FlowPatterns, b.FlowPatterns) {
		t.Errorf("%s: flow patterns differ", label)
	}
	if !reflect.DeepEqual(a.Placements, b.Placements) {
		t.Errorf("%s: placements differ", label)
	}
	if a.Exact != b.Exact {
		t.Errorf("%s: exactness differs: %v vs %v", label, a.Exact, b.Exact)
	}
}

// TestPortfolioSolveDeterminismK1vsK4 races plain satisfiability on the
// full paper example: one-worker and four-worker portfolios must
// extract the identical design regardless of which worker wins.
func TestPortfolioSolveDeterminismK1vsK4(t *testing.T) {
	s1 := mustRacing(t, netgen.PaperExample(), 1)
	s4 := mustRacing(t, netgen.PaperExample(), 4)
	if s1.Workers() != 1 || s4.Workers() != 4 {
		t.Fatalf("workers = %d, %d; want 1, 4", s1.Workers(), s4.Workers())
	}
	d1, err := s1.Solve()
	if err != nil {
		t.Fatal(err)
	}
	d4, err := s4.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sameDesign(t, "Solve", d1, d4)
	if len(d4.FlowPatterns) == 0 {
		t.Fatal("empty design")
	}
}

// TestPortfolioDescentDeterminismK1vsK4 is the tentpole guarantee for
// the optimization descents: every binary-search probe is raced, yet
// K=1 and K=4 land on identical optima and identical canonical designs.
func TestPortfolioDescentDeterminismK1vsK4(t *testing.T) {
	s1 := mustRacing(t, smallPaperExample(), 1)
	s4 := mustRacing(t, smallPaperExample(), 4)

	iso1, b1, err := s1.MaxIsolation(50, 20)
	if err != nil {
		t.Fatal(err)
	}
	iso4, b4, err := s4.MaxIsolation(50, 20)
	if err != nil {
		t.Fatal(err)
	}
	if iso1 != iso4 {
		t.Errorf("MaxIsolation value: %v vs %v", iso1, iso4)
	}
	if !b1.Exact || !b4.Exact {
		t.Fatalf("descent left the exact regime (exact=%v,%v); shrink the instance", b1.Exact, b4.Exact)
	}
	sameDesign(t, "MaxIsolation", b1, b4)

	c1, m1, err := s1.MinCost(40, 50)
	if err != nil {
		t.Fatal(err)
	}
	c4, m4, err := s4.MinCost(40, 50)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c4 {
		t.Errorf("MinCost value: %v vs %v", c1, c4)
	}
	sameDesign(t, "MinCost", m1, m4)

	u1, n1, err := s1.MaxUsabilityContext(context.Background(), 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	u4, n4, err := s4.MaxUsabilityContext(context.Background(), 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	if u1 != u4 {
		t.Errorf("MaxUsability value: %v vs %v", u1, u4)
	}
	sameDesign(t, "MaxUsability", n1, n4)
}

// TestPortfolioAssistDeterminism compares the full assistance table,
// which chains several raced optimizations.
func TestPortfolioAssistDeterminism(t *testing.T) {
	s1 := mustRacing(t, smallPaperExample(), 1)
	s4 := mustRacing(t, smallPaperExample(), 4)
	levels := []int{40, 60, 80}
	e1, err := s1.Assist(levels)
	if err != nil {
		t.Fatal(err)
	}
	e4, err := s4.Assist(levels)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e1, e4) {
		t.Errorf("assist tables differ:\nK=1: %v\nK=4: %v", e1, e4)
	}
}

// TestAssistAcrossWorkerCounts pins what Assist promises across worker
// counts, at Workers 1 (the sequential synthesizer) and 3 (a racing
// engine): every row reports the same optimum and the same Exact flag,
// and both designs pass core.Verify at that optimum with the same
// recomputed isolation tenths. The designs themselves may differ: a
// racing engine may extract another, equally optimal model.
func TestAssistAcrossWorkerCounts(t *testing.T) {
	p := smallPaperExample()
	levels := []int{40, 60, 80}
	type row struct {
		entry  core.AssistEntry
		design *core.Design
	}
	assist := func(workers int) []row {
		s, err := New(p, workers)
		if err != nil {
			t.Fatal(err)
		}
		var designs []*core.Design
		entries, err := core.AssistTable(p, levels, func(u int, budget int64) (float64, *core.Design, error) {
			iso, d, err := s.MaxIsolation(u, budget)
			designs = append(designs, d)
			return iso, d, err
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		rows := make([]row, len(entries))
		for i, e := range entries {
			rows[i] = row{e, designs[i]}
		}
		return rows
	}
	one, three := assist(1), assist(3)
	for i, level := range levels {
		a, b := one[i], three[i]
		if a.entry.IsolationTenths != b.entry.IsolationTenths {
			t.Errorf("usability %d: optimum %d at one worker, %d at three", level, a.entry.IsolationTenths, b.entry.IsolationTenths)
		}
		if (a.design == nil) != (b.design == nil) {
			t.Fatalf("usability %d: a design at one worker %v, at three %v", level, a.design != nil, b.design != nil)
		}
		if a.design == nil {
			continue
		}
		if a.design.Exact != b.design.Exact {
			t.Errorf("usability %d: Exact %v at one worker, %v at three", level, a.design.Exact, b.design.Exact)
		}
		q := *p
		q.Thresholds = core.Thresholds{IsolationTenths: a.entry.IsolationTenths, UsabilityTenths: level, CostBudget: p.Thresholds.CostBudget}
		var tenths [2]int
		for k, d := range []*core.Design{a.design, b.design} {
			res, err := core.Verify(&q, d)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Errorf("usability %d, design %d of 2: %v", level, k+1, res.Violations)
			}
			tenths[k] = int(res.Isolation * 10)
		}
		if tenths[0] != tenths[1] {
			t.Errorf("usability %d: recomputed isolation %d tenths at one worker, %d at three", level, tenths[0], tenths[1])
		}
	}
}

// TestPortfolioRepeatability re-runs the same query on one racing
// portfolio: later runs race against solvers that carry learnt clauses
// from earlier runs, and must still agree.
func TestPortfolioRepeatability(t *testing.T) {
	s := mustRacing(t, smallPaperExample(), 3)
	iso1, d1, err := s.MaxIsolation(50, 20)
	if err != nil {
		t.Fatal(err)
	}
	iso2, d2, err := s.MaxIsolation(50, 20)
	if err != nil {
		t.Fatal(err)
	}
	if iso1 != iso2 {
		t.Errorf("repeat MaxIsolation: %v vs %v", iso1, iso2)
	}
	sameDesign(t, "repeat", d1, d2)
}

// TestDelegateMatchesCore checks that New with workers <= 1 behaves
// exactly like the underlying core synthesizer.
func TestDelegateMatchesCore(t *testing.T) {
	s, err := New(netgen.PaperExample(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Workers() != 0 {
		t.Fatalf("delegate mode reports %d workers, want 0", s.Workers())
	}
	ref, err := core.NewSynthesizer(netgen.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sameDesign(t, "delegate Solve", d, want)
}

// TestPortfolioUnsat checks that infeasible queries surface the
// canonical threshold-conflict error — with the same core — from every
// portfolio size. Demanding both perfect isolation and perfect
// usability is structurally unsatisfiable.
func TestPortfolioUnsat(t *testing.T) {
	impossible := core.Thresholds{IsolationTenths: 100, UsabilityTenths: 100, CostBudget: 100}
	var cores []string
	for _, k := range []int{1, 4} {
		s := mustRacing(t, netgen.PaperExample(), k)
		_, err := s.Run(context.Background(), core.Query{Thresholds: impossible})
		if err == nil {
			t.Fatalf("K=%d: expected error at isolation 10.0 + usability 10.0", k)
		}
		if !core.IsUnsat(err) {
			t.Fatalf("K=%d: error %v is not a threshold conflict", k, err)
		}
		cores = append(cores, err.Error())
	}
	if cores[0] != cores[1] {
		t.Errorf("conflict cores differ across K:\nK=1: %s\nK=4: %s", cores[0], cores[1])
	}
}

// TestPortfolioStats checks the aggregated statistics include worker
// search effort after racing.
func TestPortfolioStats(t *testing.T) {
	s := mustRacing(t, netgen.PaperExample(), 2)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Decisions == 0 && st.Propagations == 0 {
		t.Errorf("stats show no search effort: %+v", st)
	}
}

// TestChecksNeverRace: a plain check on an engine goes straight to a
// canonical clone. No worker is cloned, and the engine has searched
// exactly once — its counters are those of one sequential solve, not of
// a raced status plus an extraction that decides the same thing again.
func TestChecksNeverRace(t *testing.T) {
	p := easyProblem(t)
	tight := p.Thresholds
	tight.IsolationTenths = 45
	for name, q := range map[string]core.Query{"Solve": {Thresholds: p.Thresholds}, "CheckAt": {Thresholds: tight}} {
		seq, err := New(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng := mustRacing(t, p, 3)
		want, errSeq := seq.Run(context.Background(), q)
		got, errEng := eng.Run(context.Background(), q)
		if errSeq != nil || errEng != nil {
			t.Fatalf("%s: sequential err %v, engine err %v", name, errSeq, errEng)
		}
		sameDesign(t, name, got, want)
		if eng.work != nil {
			t.Errorf("%s cloned %d workers it never probes", name, len(eng.work))
		}
		one, did := seq.Stats(), eng.Stats()
		if one.Conflicts == 0 {
			t.Fatalf("%s is conflict-free on this instance; the test would compare nothing", name)
		}
		if did.Counters != one.Counters {
			t.Errorf("%s on an engine searched\n%+v\n, one sequential solve\n%+v", name, did.Counters, one.Counters)
		}
	}
}

// TestOneEngineBehindBothConstructors: NewRacing and NewSession build
// the same engine, so the three optimisations come back with identical
// designs and — one worker, nothing left to race timing — identical
// search counters.
func TestOneEngineBehindBothConstructors(t *testing.T) {
	p := smallPaperExample()
	th := p.Thresholds
	for _, kind := range []core.ThresholdKind{core.ThresholdIsolation, core.ThresholdCost, core.ThresholdUsability} {
		q := core.Query{Optimise: kind, Thresholds: th}
		racing := mustRacing(t, p, 1)
		session, err := NewSession(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		a, errA := racing.Run(context.Background(), q)
		b, errB := session.Run(context.Background(), q)
		if errA != nil || errB != nil {
			t.Fatalf("optimise %v: NewRacing err %v, NewSession err %v", kind, errA, errB)
		}
		sameDesign(t, "optimise "+kind.String(), a, b)
		if sa, sb := racing.Stats(), session.Stats(); sa != sb || sa.Conflicts == 0 {
			t.Errorf("optimise %v: stats differ (or show no search):\nNewRacing  %+v\nNewSession %+v", kind, sa, sb)
		}
	}
}

// TestHeuristicsResetOnRetargetOnly pins the reset rule by replaying an
// engine's probes by hand on a worker clone of the same template. Within
// one target the full probes of a descent build on each other's
// heuristics (phases, activities, restart schedule); moving to another
// target forgets them once, keeping the learnt clauses, and so does the
// hand-over from a cheap pass to full probes. A worker that is reset
// before every probe — what a session used to do — searches differently,
// which is what makes the comparison tell the two apart.
func TestHeuristicsResetOnRetargetOnly(t *testing.T) {
	p := smallPaperExample()
	next := *p
	next.Thresholds.UsabilityTenths = 70
	eng := mustRacing(t, p, 1)

	tmpl, err := core.NewTemplate(p)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *core.Synthesizer {
		w, err := tmpl.Clone(p.Thresholds, WorkerConfig(0))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// descend is the engine's MaxIsolation descent on w: the base probe,
	// then the bisection's, cheap and full, with before run ahead of
	// each, and the attempt on clones of its own.
	descend := func(w *core.Synthesizer, th core.Thresholds, before func()) {
		q := core.Query{Optimise: core.ThresholdIsolation, Thresholds: th}
		before()
		if st := w.ProbeStatus(th.With(q.Optimise, 0), false); st != smt.Sat {
			t.Fatalf("base probe: %v", st)
		}
		q.Bisect(0, core.Probes{
			Cheap: func(v int64) smt.Status {
				before()
				return w.ProbeStatusWithin(th.With(q.Optimise, v), cheapProbeBudget)
			},
			Attempt: func(v int64) (smt.Status, *core.Design) {
				canon, err := tmpl.Clone(th, p.Options.Solver)
				if err != nil {
					t.Fatal(err)
				}
				st, d := canon.AttemptAt(th.With(q.Optimise, v))
				if st != smt.Sat {
					w.ResetSearchState() // the full probes take over
				}
				return st, d
			},
			Full: func(v int64) (smt.Status, *core.Design) {
				before()
				return w.ProbeStatus(th.With(q.Optimise, v), true), nil
			},
		})
	}
	nothing := func() {}
	maxIsolation := func(th core.Thresholds) {
		t.Helper()
		if _, d, err := eng.MaxIsolation(th.UsabilityTenths, th.CostBudget); err != nil || !d.Exact {
			t.Fatalf("MaxIsolation: %v (exact %v)", err, d != nil && d.Exact)
		}
	}

	maxIsolation(p.Thresholds)
	kept, reset := clone(), clone()
	descend(kept, p.Thresholds, nothing)
	descend(reset, p.Thresholds, reset.ResetSearchState)
	if kept.Stats() == reset.Stats() {
		t.Fatal("resetting before every probe changes nothing on this instance; the test would compare nothing")
	}
	if got := eng.work[0].Stats(); got != kept.Stats() {
		t.Errorf("the engine's worker did not search like one that keeps its heuristics through a descent:\nengine %+v\nkept   %+v\nreset  %+v", got, kept.Stats(), reset.Stats())
	}

	if err := eng.Retarget(&next); err != nil {
		t.Fatal(err)
	}
	maxIsolation(next.Thresholds)
	stale := clone()
	descend(stale, p.Thresholds, nothing)
	descend(stale, next.Thresholds, nothing)
	kept.ResetSearchState() // once, as Retarget does
	descend(kept, next.Thresholds, nothing)
	if kept.Stats() == stale.Stats() {
		t.Fatal("resetting at the retarget changes nothing on this instance; the test would compare nothing")
	}
	if got := eng.work[0].Stats(); got != kept.Stats() {
		t.Errorf("the retargeted engine's worker did not search like one reset once, at the retarget:\nengine %+v\nreset  %+v\nstale  %+v", got, kept.Stats(), stale.Stats())
	}
}
