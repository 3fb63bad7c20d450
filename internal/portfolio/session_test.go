package portfolio

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/netgen"
	"configsynth/internal/smt"
	"configsynth/internal/spec"
	"configsynth/internal/topology"
)

func sessionProblem(t *testing.T, seed int64) *core.Problem {
	t.Helper()
	p, err := netgen.Generate(netgen.Config{
		Hosts:       3,
		Routers:     3,
		MaxServices: 2,
		CRFraction:  0.2,
		Seed:        seed,
		Thresholds:  core.Thresholds{IsolationTenths: 30, UsabilityTenths: 30, CostBudget: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSessionAccessorsAndRetargetRules: an engine — from either
// constructor, there is one — reports its problem's family and may be
// retargeted within it; a problem of another family is refused, and so is
// the sequential arm, which has no template to re-instantiate.
func TestSessionAccessorsAndRetargetRules(t *testing.T) {
	p := sessionProblem(t, 1)
	q := *p
	q.Thresholds.IsolationTenths = 70
	other := sessionProblem(t, 2)
	for name, build := range map[string]func(*core.Problem, int) (*Solver, error){"NewSession": NewSession, "NewRacing": NewRacing} {
		s, err := build(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := spec.FamilyFingerprint(p); s.Family() != want {
			t.Fatalf("%s: Family = %.12s, want %.12s", name, s.Family(), want)
		}
		// Threshold deltas stay in the family.
		if err := s.Retarget(&q); err != nil {
			t.Fatalf("%s: threshold-only Retarget: %v", name, err)
		}
		if s.Problem() != &q {
			t.Fatalf("%s: Retarget left the engine on its old problem", name)
		}
		// Anything beyond thresholds changes the family and must be refused:
		// the warm workers' encodings would silently describe the old problem.
		if err := s.Retarget(other); err == nil || !strings.Contains(err.Error(), "beyond thresholds") {
			t.Fatalf("%s: cross-family Retarget: err = %v, want family rejection", name, err)
		}
	}
	seq, err := New(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.Retarget(&q); err == nil || !strings.Contains(err.Error(), "sequential arm") {
		t.Fatalf("Retarget on the sequential arm: err = %v, want a refusal", err)
	}
}

// TestSessionReuseMatchesFreshAcrossQueryMix drives one session through
// the full query surface — Solve, MaxIsolation, MinCost — at several
// threshold points in sequence, comparing every answer against a fresh
// from-scratch portfolio making the same single query (a new one per
// query: the session contract is single-query equivalence, matching the
// service's one-query-per-job usage, because a long-lived canonical is
// incremental across queries while a session extracts each query from a
// fresh synthesizer). This is the strong form of the reuse contract:
// not just repeated Solves, but interleaved optimizations must leave no
// state behind that the next query can observe.
func TestSessionReuseMatchesFreshAcrossQueryMix(t *testing.T) {
	p := sessionProblem(t, 3)
	s, err := NewSession(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	scratch := func(q *core.Problem) *Solver {
		t.Helper()
		f, err := NewRacing(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, iso := range []int{20, 50, 20, 80} { // revisit 20: warm state from iso=50 must not show
		q := *p
		q.Thresholds.IsolationTenths = iso
		if err := s.Retarget(&q); err != nil {
			t.Fatalf("iso=%d: %v", iso, err)
		}

		dS, errS := s.Solve()
		dF, errF := scratch(&q).Solve()
		if (errS == nil) != (errF == nil) {
			t.Fatalf("iso=%d Solve: session err %v, fresh err %v", iso, errS, errF)
		}
		if errS == nil {
			assertSameDesign(t, iso, "Solve", dS, dF)
		}

		vS, mS, errS := s.MaxIsolation(q.Thresholds.UsabilityTenths, q.Thresholds.CostBudget)
		vF, mF, errF := scratch(&q).MaxIsolation(q.Thresholds.UsabilityTenths, q.Thresholds.CostBudget)
		if (errS == nil) != (errF == nil) {
			t.Fatalf("iso=%d MaxIsolation: session err %v, fresh err %v", iso, errS, errF)
		}
		if errS == nil {
			if vS != vF {
				t.Fatalf("iso=%d MaxIsolation: session %v, fresh %v", iso, vS, vF)
			}
			assertSameDesign(t, iso, "MaxIsolation", mS, mF)
		}

		cS, eS, errS := s.MinCost(q.Thresholds.IsolationTenths, q.Thresholds.UsabilityTenths)
		cF, eF, errF := scratch(&q).MinCost(q.Thresholds.IsolationTenths, q.Thresholds.UsabilityTenths)
		if (errS == nil) != (errF == nil) {
			t.Fatalf("iso=%d MinCost: session err %v, fresh err %v", iso, errS, errF)
		}
		if errS == nil {
			if cS != cF {
				t.Fatalf("iso=%d MinCost: session %d, fresh %d", iso, cS, cF)
			}
			assertSameDesign(t, iso, "MinCost", eS, eF)
		}
	}
}

func assertSameDesign(t *testing.T, iso int, what string, a, b *core.Design) {
	t.Helper()
	if a.Isolation != b.Isolation || a.Usability != b.Usability || a.Cost != b.Cost || a.Exact != b.Exact {
		t.Fatalf("iso=%d %s: scores diverge: session (%v, %v, %d, exact=%v) vs fresh (%v, %v, %d, exact=%v)",
			iso, what, a.Isolation, a.Usability, a.Cost, a.Exact, b.Isolation, b.Usability, b.Cost, b.Exact)
	}
	if !reflect.DeepEqual(a.Placements, b.Placements) {
		t.Fatalf("iso=%d %s: placements diverge:\n%v\nvs\n%v", iso, what, a.Placements, b.Placements)
	}
	if !reflect.DeepEqual(a.FlowPatterns, b.FlowPatterns) {
		t.Fatalf("iso=%d %s: flow patterns diverge:\n%v\nvs\n%v", iso, what, a.FlowPatterns, b.FlowPatterns)
	}
}

// TestSessionStatsAggregateWorkersAndExtractors pins the Stats path with
// no canonical solver: a session's stats are the aggregate of its warm
// workers and of every per-query extractor it has used and dropped,
// and they must keep growing across reused queries.
func TestSessionStatsAggregateWorkersAndExtractors(t *testing.T) {
	p := sessionProblem(t, 1)
	s, err := NewSession(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	idle := s.Stats()
	if idle.Vars == 0 {
		t.Fatalf("session stats missing model shape: %+v", idle)
	}
	if _, err := s.Solve(); err != nil && !core.IsUnsat(err) {
		t.Fatal(err)
	}
	first := s.Stats()
	// Session Solve goes straight to a per-query extractor and leaves the
	// warm workers alone, so whatever moved is the extractor's search —
	// which must not vanish when the extractor is dropped.
	if first.Propagations <= idle.Propagations {
		t.Fatalf("a session Solve left no trace in Stats: propagations %d then %d", idle.Propagations, first.Propagations)
	}
	q := *p
	q.Thresholds.IsolationTenths = 60
	if err := s.Retarget(&q); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.MaxIsolation(q.Thresholds.UsabilityTenths, q.Thresholds.CostBudget); err != nil && !core.IsUnsat(err) {
		t.Fatal(err)
	}
	second := s.Stats()
	// The descent races its probes on the warm workers, so now their
	// counters show search work too, and nothing goes backwards.
	if second.Propagations <= first.Propagations || second.Decisions < first.Decisions {
		t.Fatalf("session counters wrong: %+v then %+v", first, second)
	}
}

// sweepPoints is the 13-point, three-slider what-if sweep around base:
// each slider moves through nearby values while the other two stay.
func sweepPoints(base core.Thresholds) []core.Thresholds {
	var pts []core.Thresholds
	for _, iso := range []int{10, 20, 30, 40, 50} {
		th := base
		th.IsolationTenths = iso
		pts = append(pts, th)
	}
	for _, usa := range []int{20, 40, 60, 70} {
		th := base
		th.UsabilityTenths = usa
		pts = append(pts, th)
	}
	for _, cost := range []int64{20, 60, 120, 200} {
		th := base
		th.CostBudget = cost
		pts = append(pts, th)
	}
	return pts
}

// TestSessionSweepAllModesMatchScratch is the encode-once differential:
// sessions with one and three workers are retargeted through the whole
// slider sweep, and at every point each of the four query modes must
// answer exactly like a from-scratch NewRacing portfolio of the same
// width asked that single query — the same design, optimum and
// exactness, or the same unsat core. The session answers through clones
// of its pristine template, the scratch portfolio through the template
// itself; any state a clone shared with its template or its siblings
// would show up here as a diverging model.
func TestSessionSweepAllModesMatchScratch(t *testing.T) {
	type result struct {
		value  float64
		design *core.Design
		err    error
	}
	modes := map[string]func(s *Solver, th core.Thresholds) result{
		"Solve": func(s *Solver, _ core.Thresholds) result {
			d, err := s.Solve()
			return result{0, d, err}
		},
		"MaxIsolation": func(s *Solver, th core.Thresholds) result {
			v, d, err := s.MaxIsolation(th.UsabilityTenths, th.CostBudget)
			return result{v, d, err}
		},
		"MaxUsability": func(s *Solver, th core.Thresholds) result {
			v, d, err := s.MaxUsabilityContext(context.Background(), th.IsolationTenths, th.CostBudget)
			return result{v, d, err}
		},
		"MinCost": func(s *Solver, th core.Thresholds) result {
			v, d, err := s.MinCost(th.IsolationTenths, th.UsabilityTenths)
			return result{float64(v), d, err}
		},
	}
	p := sessionProblem(t, 4)
	for _, k := range []int{1, 3} {
		ses, err := NewSession(p, k)
		if err != nil {
			t.Fatal(err)
		}
		for pt, th := range sweepPoints(p.Thresholds) {
			q := *p
			q.Thresholds = th
			if err := ses.Retarget(&q); err != nil {
				t.Fatalf("K=%d point %d: %v", k, pt, err)
			}
			for name, run := range modes {
				scratch, err := NewRacing(&q, k)
				if err != nil {
					t.Fatal(err)
				}
				got, want := run(ses, th), run(scratch, th)
				what := fmt.Sprintf("K=%d %+v %s", k, th, name)
				if (got.err == nil) != (want.err == nil) {
					t.Fatalf("%s: session err %v, scratch err %v", what, got.err, want.err)
				}
				if want.err != nil {
					var a, b *core.ThresholdConflictError
					if errors.As(want.err, &a) && (!errors.As(got.err, &b) || !reflect.DeepEqual(a.Core, b.Core)) {
						t.Fatalf("%s: conflict cores diverge: session %v, scratch %v", what, got.err, want.err)
					}
					continue
				}
				if got.value != want.value {
					t.Fatalf("%s: session optimum %v, scratch %v", what, got.value, want.value)
				}
				assertSameDesign(t, th.IsolationTenths, what, got.design, want.design)
			}
		}
	}
}

// tightArenaCap returns the smallest clause-arena cap p still encodes
// under: the size of its encoding, so that the first learnt clause of
// any search overflows it.
func tightArenaCap(t *testing.T, p *core.Problem) int {
	t.Helper()
	tmpl, err := core.NewTemplate(p)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 1, 1<<24 // a clone does not fit lo words and fits hi
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if _, err := tmpl.Clone(p.Thresholds, smt.SolverConfig{ArenaCapWords: mid}); err != nil {
			if !errors.Is(err, core.ErrModelTooLarge) {
				t.Fatalf("Clone under cap %d: %v", mid, err)
			}
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// TestArenaOverflowOnClonesIsTyped: with the clause arena capped below
// the encoding, every constructor reports core.ErrModelTooLarge from its
// one encode; capped at exactly the encoding, the encode and the clones
// succeed and the first learnt clause of a search overflows — which a
// *Context query, racing or session, must hand back as the same typed
// error, never as a panic.
func TestArenaOverflowOnClonesIsTyped(t *testing.T) {
	p, err := netgen.Generate(netgen.Config{
		Hosts: 8, Routers: 10, MaxServices: 3, CRFraction: 0.10, Seed: 1,
		Thresholds: core.Thresholds{IsolationTenths: 30, UsabilityTenths: 50, CostBudget: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	build := map[string]func(*core.Problem) (*Solver, error){
		"NewRacing":  func(q *core.Problem) (*Solver, error) { return NewRacing(q, 2) },
		"NewSession": func(q *core.Problem) (*Solver, error) { return NewSession(q, 2) },
	}
	tight := tightArenaCap(t, p)
	for name, ctor := range build {
		q := *p
		q.Options.Solver.ArenaCapWords = 64
		if _, err := ctor(&q); !errors.Is(err, core.ErrModelTooLarge) {
			t.Fatalf("%s under a 64-word cap: err = %v, want ErrModelTooLarge", name, err)
		}
		q.Options.Solver.ArenaCapWords = tight
		s, err := ctor(&q)
		if err != nil {
			t.Fatalf("%s under a cap of exactly the encoding (%d words): %v", name, tight, err)
		}
		if _, err := s.SolveContext(context.Background()); !errors.Is(err, core.ErrModelTooLarge) {
			t.Fatalf("%s: search past the arena cap: err = %v, want ErrModelTooLarge", name, err)
		}
	}
}

// relinked returns p with the same nodes and the links declared in
// reverse: the same family (the fingerprint sorts links by endpoints),
// and the same LinkID numbering, which follows the link set.
func relinked(t *testing.T, p *core.Problem) *core.Problem {
	t.Helper()
	net := topology.New()
	for id := 0; id < p.Network.NumNodes(); id++ {
		n, _ := p.Network.Node(topology.NodeID(id))
		if n.Kind == topology.Host {
			net.AddHost(n.Name)
		} else {
			net.AddRouter(n.Name)
		}
	}
	links := p.Network.Links()
	slices.Reverse(links)
	for _, l := range links {
		if _, err := net.Connect(l.A, l.B); err != nil {
			t.Fatal(err)
		}
	}
	q := *p
	q.Network = net
	if spec.FamilyFingerprint(&q) != spec.FamilyFingerprint(p) {
		t.Fatal("reversing the link declarations left the family")
	}
	return &q
}

// TestSessionRetargetAcrossLinkOrder: a re-parsed problem with the same
// declaration order must keep the session's template — that is the
// one-encode path. So must a problem of the family whose links are
// declared in another order: its links are numbered as the session's
// are, and the session answers it as a from-scratch solve does.
func TestSessionRetargetAcrossLinkOrder(t *testing.T) {
	gen := func() *core.Problem {
		p, err := netgen.Generate(netgen.Config{
			Hosts: 8, Routers: 10, MaxServices: 3, CRFraction: 0.10, Seed: 1,
			Thresholds: core.Thresholds{IsolationTenths: 30, UsabilityTenths: 50, CostBudget: 32},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := gen()
	s, err := NewSession(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	built := s.tmpl

	again := gen() // another Problem value, same declarations
	again.Thresholds.CostBudget = 40
	if err := s.Retarget(again); err != nil {
		t.Fatal(err)
	}
	if s.tmpl != built {
		t.Fatal("Retarget to a same-order problem re-encoded the template")
	}

	q := relinked(t, p)
	q.Thresholds = again.Thresholds
	if err := s.Retarget(q); err != nil {
		t.Fatalf("Retarget to a re-ordered problem: %v", err)
	}
	if s.tmpl != built || s.prob != q {
		t.Fatal("Retarget to a re-ordered problem re-encoded the template or kept the old target")
	}
	scratch, err := NewRacing(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := scratch.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Placements) == 0 {
		t.Fatal("the instance places no device; the test would compare nothing")
	}
	assertSameDesign(t, q.Thresholds.IsolationTenths, "Solve after a re-ordered Retarget", got, want)
	if res, err := core.Verify(q, got); err != nil || !res.OK() {
		t.Fatalf("session design does not verify against its last target: %v %+v", err, res)
	}
	gotC, _, err := s.MinCost(q.Thresholds.IsolationTenths, q.Thresholds.UsabilityTenths)
	if err != nil {
		t.Fatal(err)
	}
	wantC, _, err := scratch.MinCost(q.Thresholds.IsolationTenths, q.Thresholds.UsabilityTenths)
	if err != nil {
		t.Fatal(err)
	}
	if gotC != wantC {
		t.Fatalf("MinCost after a re-ordered Retarget: session %d, scratch %d", gotC, wantC)
	}
}

// TestSessionWorkersAreClonedByTheFirstRace: Solve-style deltas extract
// from a clone of the template and never race, so a session serving only
// those holds no worker; the first descent clones them, and they stay.
func TestSessionWorkersAreClonedByTheFirstRace(t *testing.T) {
	p := sessionProblem(t, 1)
	s, err := NewSession(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Workers() != 2 {
		t.Fatalf("Workers = %d, want 2", s.Workers())
	}
	if _, err := s.Solve(); err != nil && !core.IsUnsat(err) {
		t.Fatal(err)
	}
	if s.work != nil {
		t.Fatal("a session Solve cloned workers it never probes")
	}
	if _, _, err := s.MinCost(30, 30); err != nil && !core.IsUnsat(err) {
		t.Fatal(err)
	}
	warm := s.work
	if len(warm) != 2 {
		t.Fatalf("after a descent the session has %d workers, want 2", len(warm))
	}
	q := *p
	q.Thresholds.IsolationTenths = 40
	if err := s.Retarget(&q); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.MinCost(40, 30); err != nil && !core.IsUnsat(err) {
		t.Fatal(err)
	}
	if &s.work[0] != &warm[0] {
		t.Fatal("the second descent replaced the warm workers")
	}
}

// TestSessionCancelWhileWorkersAreCloned: a deadline that expires around
// the moment the first race clones a session's workers has the context
// watcher walk the worker list as it appears (run under -race), and the
// hung descent must still come back promptly whichever side wins.
func TestSessionCancelWhileWorkersAreCloned(t *testing.T) {
	p := hardProblem(t)
	for i := 0; i < 8; i++ {
		s, err := NewSession(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i)*500*time.Microsecond)
		start := time.Now()
		_, _, err = s.MaxIsolationContext(ctx, p.Thresholds.UsabilityTenths, p.Thresholds.CostBudget)
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline %d: got %v, want context.DeadlineExceeded or an anytime design", i, err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("deadline %d: cancelled descent took %v", i, elapsed)
		}
	}
}
