package portfolio

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/faults"
	"configsynth/internal/netgen"
	"configsynth/internal/sat"
)

// oneShotProblem is a small netgen instance under a satisfiable or an
// unsatisfiable slider setting; its descents stay in the exact regime,
// where answers and canonical counters do not depend on race timing.
func oneShotProblem(t *testing.T, seed int64, regime string) *core.Problem {
	t.Helper()
	th := map[string]core.Thresholds{
		"sat":   {IsolationTenths: 30, UsabilityTenths: 50, CostBudget: 16},
		"unsat": {IsolationTenths: 90, UsabilityTenths: 80, CostBudget: 40},
	}[regime]
	p, err := netgen.Generate(netgen.Config{Hosts: 4, Routers: 4, MaxServices: 2, CRFraction: 0.1, Seed: seed, Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// reply is everything a query reports, as bytes: the design or
// explanation, the optimum, the error and its unsat core.
type reply struct {
	Design, Explanation []byte
	Value               float64
	Err                 string
	Core                []core.ThresholdKind
}

func (r reply) String() string {
	return fmt.Sprintf("design %s explanation %s value %v err %q core %v", r.Design, r.Explanation, r.Value, r.Err, r.Core)
}

// askEngine puts one of the engine's queries to s.
func askEngine(t *testing.T, s *Solver, query string) reply {
	t.Helper()
	th := s.Problem().Thresholds
	var r reply
	var d *core.Design
	var err error
	switch query {
	case "Solve":
		d, err = s.Solve()
	case "MinCost":
		var c int64
		c, d, err = s.MinCost(th.IsolationTenths, th.UsabilityTenths)
		r.Value = float64(c)
	case "MaxIsolation":
		r.Value, d, err = s.MaxIsolation(th.UsabilityTenths, th.CostBudget)
	case "Explain":
		var ex *core.Explanation
		ex, err = s.Explain()
		r.Explanation, _ = json.Marshal(ex)
	default:
		t.Fatalf("unknown query %q", query)
	}
	r.Design, _ = json.Marshal(d)
	if err != nil {
		r.Err = err.Error()
		var tc *core.ThresholdConflictError
		if errors.As(err, &tc) {
			r.Core = tc.Core
		}
	}
	return r
}

// canonicalStats is the part of an engine's Stats no race timing
// touches: the template's shape and the search of its canonical
// questions. With one worker it is all of Stats but the raced probes,
// which are deterministic too; with more, the losers' counters depend
// on where their cancellation landed.
func canonicalStats(s *Solver) core.ModelStats {
	st := s.shape
	st.Counters.Add(s.extracted)
	return st
}

// sameReply fails the test when two engines answered differently, or
// searched differently where the search is deterministic.
func sameReply(t *testing.T, label string, got, want reply, gotEng, wantEng *Solver) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: answers differ:\n got %s\nwant %s", label, got, want)
	}
	if g, w := canonicalStats(gotEng), canonicalStats(wantEng); g != w {
		t.Fatalf("%s: canonical search differs:\n got %+v\nwant %+v", label, g, w)
	}
	if gotEng.Workers() == 1 {
		if g, w := gotEng.Stats(), wantEng.Stats(); g != w {
			t.Fatalf("%s: Stats differ:\n got %+v\nwant %+v", label, g, w)
		}
	}
}

// TestOneShotMatchesSession: an engine that spends its template on its
// question (NewRacing) answers every query like one that keeps it
// pristine and clones (NewSession) — the same design bytes, optimum,
// explanation and unsat core, and the same counters — on satisfiable and
// unsatisfiable instances, with one worker and with three. The one-shot
// engine spends its template on every question but an optimisation
// whose attempt (a clone) answered, which probed nothing and leaves the
// template for the next question.
func TestOneShotMatchesSession(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, regime := range []string{"sat", "unsat"} {
			p := oneShotProblem(t, seed, regime)
			for _, k := range []int{1, 3} {
				for _, query := range []string{"Solve", "MinCost", "MaxIsolation", "Explain"} {
					label := fmt.Sprintf("seed=%d %s K=%d %s", seed, regime, k, query)
					oneShot, session := mustRacing(t, p, k), mustSession(t, p, k)
					got, want := askEngine(t, oneShot, query), askEngine(t, session, query)
					sameReply(t, label, got, want, oneShot, session)
					optimised := query == "MinCost" || query == "MaxIsolation"
					if !oneShot.spent && (!optimised || oneShot.probed != (sat.Counters{})) || session.spent {
						t.Fatalf("%s: spent = %v on the one-shot engine (probed %+v), %v on the session", label, oneShot.spent, oneShot.probed, session.spent)
					}
				}
			}
		}
	}
}

// TestSpentEngineAnswersTheNextQueryAlike: after its first question
// spent the template, a one-shot engine encodes the problem again for
// the next and answers a mixed sequence of queries exactly as a session
// does.
func TestSpentEngineAnswersTheNextQueryAlike(t *testing.T) {
	for _, regime := range []string{"sat", "unsat"} {
		p := oneShotProblem(t, 3, regime)
		oneShot, session := mustRacing(t, p, 1), mustSession(t, p, 1)
		for i, query := range []string{"Solve", "MinCost", "Solve", "Explain", "MaxIsolation"} {
			spent := oneShot.tmpl
			got, want := askEngine(t, oneShot, query), askEngine(t, session, query)
			sameReply(t, fmt.Sprintf("%s query %d %s", regime, i, query), got, want, oneShot, session)
			if i > 0 && oneShot.tmpl == spent {
				t.Fatalf("%s query %d %s: the engine answered without encoding a template afresh", regime, i, query)
			}
		}
	}
}

// TestSpentEngineRetargets: a one-shot engine whose template is spent
// still moves to another threshold combination of its family and
// answers there like a fresh engine built on the new problem.
func TestSpentEngineRetargets(t *testing.T) {
	p := oneShotProblem(t, 1, "sat")
	s := mustRacing(t, p, 2)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	for _, iso := range []int{20, 90, 40} {
		q := *p
		q.Thresholds.IsolationTenths = iso
		if !s.spent {
			t.Fatalf("iso=%d: the engine's last question did not spend its template", iso)
		}
		if err := s.Retarget(&q); err != nil {
			t.Fatalf("iso=%d: Retarget on a spent engine: %v", iso, err)
		}
		for _, query := range []string{"Solve", "MinCost"} {
			fresh := mustSession(t, &q, 2)
			got, want := askEngine(t, s, query), askEngine(t, fresh, query)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("iso=%d %s: the retargeted engine answers\n%s\na fresh one\n%s", iso, query, got, want)
			}
		}
	}
}

// TestSpentExtractionStillDegradesToIncumbent: a deadline that lands in
// a one-shot descent's final extraction — the search that spends the
// template — leaves the engine its incumbent, and AnytimeDesign
// re-extracts it from a template encoded afresh. Every solve is stalled
// by 100 ms (the service's stalledSolves technique), and the deadline is
// fired the moment the extraction's synthesizer appears, so it lands
// inside that stall.
func TestSpentExtractionStillDegradesToIncumbent(t *testing.T) {
	p := oneShotProblem(t, 2, "sat")
	want := mustSession(t, p, 1)
	_, exact, err := want.MaxIsolation(p.Thresholds.UsabilityTenths, p.Thresholds.CostBudget)
	if err != nil || !exact.Exact {
		t.Fatalf("reference descent: err %v, or it left the exact regime", err)
	}

	plan, err := faults.Parse("seed=5," + faults.SatSolveDelay + "=1:100ms")
	if err != nil {
		t.Fatal(err)
	}
	defer faults.Set(plan)()
	s := mustRacing(t, p, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for ctx.Err() == nil {
			s.canonMu.Lock()
			extracting := len(s.live) > 0 && s.spent
			s.canonMu.Unlock()
			if extracting {
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	_, _, err = s.MaxIsolationContext(ctx, p.Thresholds.UsabilityTenths, p.Thresholds.CostBudget)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MaxIsolation: err = %v, want the cancellation", err)
	}
	if !s.spent {
		t.Fatal("the cancellation did not land in the spent extraction")
	}
	d, ok := s.AnytimeDesign()
	if !ok {
		t.Fatal("AnytimeDesign found nothing to degrade to")
	}
	if d.Exact {
		t.Fatal("an anytime design must be marked inexact")
	}
	d.Exact = true
	sameDesign(t, "anytime design at the incumbent", d, exact)
}

// TestOneShotSolveAllocatesLittle pins the point of a one-shot engine:
// its question searches the model it encoded instead of a copy. So a
// plain solve of a 50-host instance is held to at most 48 % of what the
// same question allocates on a NewSession engine, whose first question
// searches a clone of the template. On that instance the one-shot solve
// allocates 5.30 MB and the cloned question 12.08 MB (0.439), nearly all
// of the difference the clone; what the one-shot solve still allocates
// is mostly the three threshold guards' PB store, whose occurrence table
// has a slot per literal, and the search itself. The bound used to be
// half of the encode, which fell from 11.65 to 9.55 MB when variables
// lost their names while the solve did not move: 48 % of the clone is
// 5.80 MB, under the 5.82 MB that half of the named encode allowed.
// Under the race detector the search's many small allocations grow
// more than the clone's few large ones (6.90 of 13.68 MB, 0.505), so
// the bound there is 0.52: 7.11 MB, under the 8.61 MB that half of the
// named encode allowed under it.
func TestOneShotSolveAllocatesLittle(t *testing.T) {
	p, err := netgen.Generate(netgen.Config{
		Hosts: 50, Routers: 10, MaxServices: 3, CRFraction: 0.10, Seed: 50,
		Thresholds: core.Thresholds{IsolationTenths: 30, UsabilityTenths: 50, CostBudget: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	solve := func(s *Solver) {
		if _, err := s.SolveContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	oneShot, session := mustRacing(t, p, 1), mustSession(t, p, 1)
	spent := allocated(func() { solve(oneShot) })
	cloned := allocated(func() { solve(session) })
	t.Logf("a one-shot solve allocated %d bytes, %.3f of the %d the same question on a cloned synthesizer did",
		spent, float64(spent)/float64(cloned), cloned)
	bound := 0.48
	if raceEnabled {
		bound = 0.52
	}
	if float64(spent) > bound*float64(cloned) {
		t.Fatalf("a one-shot solve allocated %d bytes, %.3f of the %d the same question on a cloned synthesizer did; want at most %.2f",
			spent, float64(spent)/float64(cloned), cloned, bound)
	}
}

// TestSessionQuestionAllocBudget pins the point of a session's spare:
// a what-if question builds its synthesizer in the memory of the last
// question's, so after one warm-up question a what-if on a 50-host
// instance allocates at most half of what its template's encode did.
// Cloning into fresh memory allocated as much as the encode (100 % of
// 11.6 MB when variables had names); the recycled question allocates
// 2.6 MB, 28 % of the 9.5 MB encode, nearly all of it the search and
// the three guards.
func TestSessionQuestionAllocBudget(t *testing.T) {
	p, err := netgen.Generate(netgen.Config{
		Hosts: 50, Routers: 10, MaxServices: 3, CRFraction: 0.10, Seed: 50,
		Thresholds: core.Thresholds{IsolationTenths: 30, UsabilityTenths: 50, CostBudget: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var s *Solver
	encode := allocated(func() { s = mustSession(t, p, 1) })
	ask := func(iso int) {
		q := *p
		q.Thresholds.IsolationTenths = iso
		if err := s.Retarget(&q); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SolveContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ask(20) // the warm-up: its clone has no spare to go into
	question := allocated(func() { ask(40) })
	t.Logf("a what-if question allocated %d bytes, %.0f%% of the %d its template's encode did",
		question, 100*float64(question)/float64(encode), encode)
	if question*2 > encode {
		t.Fatalf("a what-if question allocated %d bytes, %.0f%% of the %d its template's encode did; want at most half",
			question, 100*float64(question)/float64(encode), encode)
	}
}

func mustSession(t *testing.T, p *core.Problem, workers int) *Solver {
	t.Helper()
	s, err := NewSession(p, workers)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
