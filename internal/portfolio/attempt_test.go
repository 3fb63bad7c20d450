package portfolio

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/faults"
	"configsynth/internal/netgen"
)

// attemptProblem is a netgen instance whose max-isolation descent
// proves 5.0 in its cheap pass and leaves 8.0 open, a bound that takes
// the attempt thousands of conflicts; it answers Sat, and the answer is
// the attempt's design.
func attemptProblem(t *testing.T) *core.Problem {
	t.Helper()
	p, err := netgen.Generate(netgen.Config{Hosts: 6, Routers: 6, MaxServices: 2, CRFraction: 0.1, Seed: 3,
		Thresholds: core.Thresholds{IsolationTenths: 30, UsabilityTenths: 80, CostBudget: 60}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// withCheapBudget runs f with the cheap pass under budget conflicts: 0
// makes every cheap probe Unknown, so the canonical question is asked at
// the tightest value the threshold allows.
func withCheapBudget(budget int64, f func()) {
	old := cheapProbeBudget
	cheapProbeBudget = budget
	defer func() { cheapProbeBudget = old }()
	f()
}

// optimum runs the optimisation of the given mode on s, and returns the
// query, its answer and the optimum in the threshold's unit.
func optimum(t *testing.T, s *Solver, mode core.ThresholdKind) (core.Query, *core.Design, int64) {
	t.Helper()
	q := core.Query{Optimise: mode, Thresholds: s.Problem().Thresholds}
	d, err := s.Run(context.Background(), q)
	if err != nil {
		t.Fatalf("%v: %v", mode, err)
	}
	return q, d, q.Value(d)
}

// checkOptimum fails the test unless d, the answer of q at value v, is
// exact, is the design a fresh engine's plain check at v extracts, and v
// is tight: one step tighter is unsatisfiable.
func checkOptimum(t *testing.T, label string, p *core.Problem, q core.Query, d *core.Design, v int64) {
	t.Helper()
	if !d.Exact {
		t.Fatalf("%s: the answer at %d is not exact", label, v)
	}
	plain := func(v int64) (*core.Design, error) {
		return mustSession(t, p, 1).Run(context.Background(), core.Query{Thresholds: q.Thresholds.With(q.Optimise, v)})
	}
	want, err := plain(v)
	if err != nil {
		t.Fatalf("%s: a plain check at the optimum %d: %v", label, v, err)
	}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("%s: the answer at %d is not a fresh engine's plain check there:\n got %+v\nwant %+v", label, v, d, want)
	}
	tighter := v + 1
	if q.Optimise == core.ThresholdCost {
		tighter = v - 1
	}
	if tighter < 0 || tighter > 100 && q.Optimise != core.ThresholdCost {
		return
	}
	if _, err := plain(tighter); !core.IsUnsat(err) {
		t.Fatalf("%s: one step past the optimum %d, at %d, a plain check says %v, want unsat", label, v, tighter, err)
	}
}

// TestOptimumIsAPlainCheckThere: on a netgen sweep over the three
// optimisation modes, whichever way the descent went — a bound the fresh
// worker proved or refuted, the canonical question asked once, or the
// fallback — the answer is exact, is the design a fresh engine's plain
// check at the optimum extracts, and one step tighter is unsatisfiable,
// on a one-shot engine and a session, with one worker and three. The
// sweep holds the max-isolation instances of the canonical question and
// of the loose bound.
func TestOptimumIsAPlainCheckThere(t *testing.T) {
	type instance struct {
		p     *core.Problem
		modes []core.ThresholdKind
	}
	iso := []core.ThresholdKind{core.ThresholdIsolation}
	all := []core.ThresholdKind{core.ThresholdIsolation, core.ThresholdUsability, core.ThresholdCost}
	sweep := []instance{{attemptProblem(t), iso}, {oneShotProblem(t, 2, "sat"), iso}}
	for seed := int64(1); seed <= 4; seed++ {
		p, err := netgen.Generate(netgen.Config{Hosts: 6, Routers: 5, MaxServices: 2, CRFraction: 0.1, Seed: seed,
			Thresholds: core.Thresholds{IsolationTenths: 30, UsabilityTenths: 60, CostBudget: 60}})
		if err != nil {
			t.Fatal(err)
		}
		sweep = append(sweep, instance{p, all})
	}
	for i, in := range sweep {
		for _, mode := range in.modes {
			for _, k := range []int{1, 3} {
				for name, build := range map[string]func(*testing.T, *core.Problem, int) *Solver{"one-shot": mustRacing, "session": mustSession} {
					label := fmt.Sprintf("instance %d %v K=%d %s", i, mode, k, name)
					q, d, v := optimum(t, build(t, in.p, k), mode)
					checkOptimum(t, label, in.p, q, d, v)
				}
			}
		}
	}
}

// TestAttemptIsOneSearch: on attemptProblem the attempt answers with
// one search, never replayed: tallied once as the answer's and counter
// for counter a fresh engine's plain check at the optimum, nothing
// probed, and the one-shot template left unspent, so that no canonical
// synthesizer searched after it; its design is that plain check's.
func TestAttemptIsOneSearch(t *testing.T) {
	p := attemptProblem(t)
	for name, build := range map[string]func(*testing.T, *core.Problem, int) *Solver{"one-shot": mustRacing, "session": mustSession} {
		s := build(t, p, 1)
		q, d, v := optimum(t, s, core.ThresholdIsolation)
		checkOptimum(t, name, p, q, d, v)
		plain := mustSession(t, p, 1)
		if _, err := plain.Run(context.Background(), core.Query{Thresholds: q.Thresholds.With(q.Optimise, v)}); err != nil {
			t.Fatal(err)
		}
		if s.extracted != plain.extracted {
			t.Fatalf("%s: the attempt searched\n%+v\n, a plain check at the optimum\n%+v", name, s.extracted, plain.extracted)
		}
		if s.spent || s.probed != (core.ModelStats{}) {
			t.Fatalf("%s: template spent %v, probed %+v; want the attempt's answer alone", name, s.spent, s.probed)
		}
		// A route that tried the bound in a short first search and asked
		// again after it would differ only on a search longer than that.
		if c := s.extracted.Conflicts; c <= 16*cheapProbeBudget {
			t.Fatalf("%s: the attempt answered in %d conflicts; the test wants a bound that takes more than %d", name, c, 16*cheapProbeBudget)
		}
	}
}

// TestForcedFallbackReencodesOrReusesTheSpare: with the cheap pass blind
// the canonical question is asked at the tightest value the threshold
// allows, where it is Unsat, and the full probes take over. A one-shot
// engine, whose attempt was a clone, spends the template it encoded on
// the extraction and encodes nothing afresh; a session keeps its
// template and ends with a spare. Both answer alike, exactly, with the
// design of a plain check at the optimum.
func TestForcedFallbackReencodesOrReusesTheSpare(t *testing.T) {
	p := oneShotProblem(t, 2, "sat")
	withCheapBudget(0, func() {
		for _, k := range []int{1, 3} {
			oneShot, session := mustRacing(t, p, k), mustSession(t, p, k)
			encoded, kept := oneShot.tmpl, session.tmpl
			label := fmt.Sprintf("K=%d", k)
			got, want := askEngine(t, oneShot, "MaxIsolation"), askEngine(t, session, "MaxIsolation")
			sameReply(t, label, got, want, oneShot, session)
			if oneShot.tmpl != encoded || !oneShot.spent {
				t.Fatalf("%s: the one-shot engine encoded afresh (%v) or did not spend its template on the extraction (spent %v)", label, oneShot.tmpl != encoded, oneShot.spent)
			}
			if session.tmpl != kept || session.spent || session.spare == nil {
				t.Fatalf("%s: the session did not keep its template (kept %v, spent %v) or its spare (%v)", label, session.tmpl == kept, session.spent, session.spare != nil)
			}
			q, d, v := optimum(t, mustSession(t, p, k), core.ThresholdIsolation)
			checkOptimum(t, label, p, q, d, v)
		}
	})
}

// TestBoundObserverSeesTheAnswerOfTheCanonicalQuestion: when no cheap
// probe is Sat and the canonical question answers, the observer still
// sees the optimum — the one bound the descent proved — and nothing
// else.
func TestBoundObserverSeesTheAnswerOfTheCanonicalQuestion(t *testing.T) {
	p := oneShotProblem(t, 1, "sat")
	withCheapBudget(0, func() {
		for _, build := range []func(*testing.T, *core.Problem, int) *Solver{mustRacing, mustSession} {
			s := build(t, p, 2)
			var bounds []int64
			s.SetBoundObserver(func(kind core.ThresholdKind, v int64) { bounds = append(bounds, v) })
			// Nothing held: no device at all is the cheapest design, and
			// a cost of 0 is the tightest value the threshold allows.
			cost, d, err := s.MinCost(0, 0)
			if err != nil || !d.Exact {
				t.Fatalf("MinCost: %v (exact %v)", err, d != nil && d.Exact)
			}
			if !reflect.DeepEqual(bounds, []int64{cost}) || cost != 0 {
				t.Fatalf("MinCost %d: the observer saw %v, want [0]", cost, bounds)
			}
		}
	})
}

// TestBoundObserverEndsAtTheOptimum: every bound reported is proven, in
// order, and the last is the answer, whichever way the descent found it.
func TestBoundObserverEndsAtTheOptimum(t *testing.T) {
	for _, p := range []*core.Problem{attemptProblem(t), oneShotProblem(t, 2, "sat")} {
		s := mustRacing(t, p, 1)
		var bounds []int64
		s.SetBoundObserver(func(kind core.ThresholdKind, v int64) { bounds = append(bounds, v) })
		q, _, v := optimum(t, s, core.ThresholdIsolation)
		if len(bounds) == 0 || bounds[len(bounds)-1] != v {
			t.Fatalf("optimum %d: the observer saw %v", v, bounds)
		}
		for i, b := range bounds {
			if i > 0 && b <= bounds[i-1] {
				t.Fatalf("bounds not increasing: %v", bounds)
			}
			if _, err := mustSession(t, p, 1).Run(context.Background(), core.Query{Thresholds: q.Thresholds.With(q.Optimise, b)}); err != nil {
				t.Fatalf("reported bound %d does not hold: %v", b, err)
			}
		}
	}
}

// TestDeadlineInTheCanonicalAttemptDegradesToTheIncumbent: a deadline
// that lands while the canonical question is asked at a bound the cheap
// pass left open, not yet proven, leaves the engine the bound the cheap
// pass did prove, and AnytimeDesign extracts the design a plain check
// there gives, marked inexact: on a one-shot engine, whose template the
// attempt leaves unspent, and on a session. Every solve is stalled by
// 100 ms, and the deadline is fired the moment the attempt's
// synthesizer appears in its slot.
func TestDeadlineInTheCanonicalAttemptDegradesToTheIncumbent(t *testing.T) {
	p := attemptProblem(t)
	_, _, opt := optimum(t, mustSession(t, p, 1), core.ThresholdIsolation)

	plan, err := faults.Parse("seed=5," + faults.SatSolveDelay + "=1:100ms")
	if err != nil {
		t.Fatal(err)
	}
	defer faults.Set(plan)()
	for name, build := range map[string]func(*testing.T, *core.Problem, int) *Solver{"one-shot": mustRacing, "session": mustSession} {
		s := build(t, p, 1)
		var bounds []int64
		s.SetBoundObserver(func(kind core.ThresholdKind, v int64) { bounds = append(bounds, v) })
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			for ctx.Err() == nil {
				s.canonMu.Lock()
				attempting := len(s.live) > 0
				s.canonMu.Unlock()
				if attempting {
					cancel()
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
		_, _, err := s.MaxIsolationContext(ctx, p.Thresholds.UsabilityTenths, p.Thresholds.CostBudget)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: MaxIsolation: err = %v, want the cancellation", name, err)
		}
		inc := s.incumbent
		if inc == nil || int64(inc.IsolationTenths) >= opt {
			t.Fatalf("%s: the incumbent %+v is not a bound below the optimum %d: the deadline did not land in the attempt", name, inc, opt)
		}
		if len(bounds) == 0 || bounds[len(bounds)-1] != int64(inc.IsolationTenths) {
			t.Fatalf("%s: the observer saw %v, the incumbent is %d", name, bounds, inc.IsolationTenths)
		}
		d, ok := s.AnytimeDesign()
		if !ok || d.Exact {
			t.Fatalf("%s: AnytimeDesign: ok %v, exact %v; want an inexact design", name, ok, d != nil && d.Exact)
		}
		want, err := mustSession(t, p, 1).Run(context.Background(), core.Query{Thresholds: *inc})
		if err != nil {
			t.Fatal(err)
		}
		d.Exact = true
		sameDesign(t, name+": anytime design at the incumbent", d, want)
	}
}

// TestContextFiredInTheCheapPassSearchesNoMore: a context cancelled by
// the bound observer at the cheap pass's first proven bound ends the
// descent there. The cheap probes left and the full probes answer
// Unknown without a race, the attempt and the extraction get a
// synthesizer that starts interrupted, and so no question is searched:
// nothing extracted, nothing probed. The answer is the cancellation,
// and the incumbent is the bound the observer saw.
func TestContextFiredInTheCheapPassSearchesNoMore(t *testing.T) {
	p := attemptProblem(t)
	for _, k := range []int{1, 3} {
		for name, build := range map[string]func(*testing.T, *core.Problem, int) *Solver{"one-shot": mustRacing, "session": mustSession} {
			label := fmt.Sprintf("%s K=%d", name, k)
			s := build(t, p, k)
			ctx, cancel := context.WithCancel(context.Background())
			var bounds []int64
			s.SetBoundObserver(func(kind core.ThresholdKind, v int64) {
				bounds = append(bounds, v)
				cancel()
			})
			_, err := s.Run(ctx, core.Query{Optimise: core.ThresholdIsolation, Thresholds: p.Thresholds})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want the cancellation", label, err)
			}
			if len(bounds) != 1 || s.incumbent == nil || int64(s.incumbent.IsolationTenths) != bounds[0] {
				t.Fatalf("%s: the observer saw %v, the incumbent is %+v; want the one bound the cheap pass proved", label, bounds, s.incumbent)
			}
			if s.extracted.Conflicts != 0 || s.probed.Conflicts != 0 {
				t.Fatalf("%s: after the context fired the engine searched on: %d conflicts extracted, %d probed", label, s.extracted.Conflicts, s.probed.Conflicts)
			}
		}
	}
}
