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

// recycleProblem is a netgen instance of the given size at the
// moderate slider setting the sweep moves around.
func recycleProblem(t *testing.T, hosts int) *core.Problem {
	t.Helper()
	p, err := netgen.Generate(netgen.Config{
		Hosts: hosts, Routers: 6, MaxServices: 3, CRFraction: 0.10, Seed: int64(hosts),
		Thresholds: core.Thresholds{IsolationTenths: 30, UsabilityTenths: 50, CostBudget: int64(hosts) * 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// recycleSweep is the thirteen-point slider sweep around base: each
// slider moves through nearby values while the other two hold.
func recycleSweep(base core.Thresholds) []core.Thresholds {
	var pts []core.Thresholds
	for _, iso := range []int{10, 20, 30, 40, 50} {
		th := base
		th.IsolationTenths = iso
		pts = append(pts, th)
	}
	for _, usa := range []int{30, 40, 60, 70} {
		th := base
		th.UsabilityTenths = usa
		pts = append(pts, th)
	}
	for _, cost := range []int64{base.CostBudget / 2, base.CostBudget * 3 / 4, base.CostBudget * 5 / 4, base.CostBudget * 3 / 2} {
		th := base
		th.CostBudget = cost
		pts = append(pts, th)
	}
	return pts
}

// spareFromSolve returns the spare a session of p keeps after one
// plain question.
func spareFromSolve(t *testing.T, p *core.Problem) *core.Synthesizer {
	t.Helper()
	s := mustSession(t, p, 1)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if s.spare == nil {
		t.Fatal("a session kept no spare after its question")
	}
	return s.spare
}

// spareFromCancel returns the spare a session keeps after a question
// its context cut short in the middle of its search: a check just past
// the isolation optimum of an 8-host instance, which takes thousands of
// conflicts to refute, cancelled once it has started deciding.
func spareFromCancel(t *testing.T) *core.Synthesizer {
	t.Helper()
	p, err := netgen.Generate(netgen.Config{Hosts: 8, Routers: 8, MaxServices: 3, CRFraction: 0.10, Seed: 4,
		Thresholds: core.Thresholds{IsolationTenths: 78, UsabilityTenths: 80, CostBudget: 80}})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := range 20 {
		s := mustSession(t, p, 1)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			for ctx.Err() == nil {
				s.canonMu.Lock()
				asking := len(s.live) > 0
				s.canonMu.Unlock()
				if asking {
					time.Sleep(time.Duration(attempt) * time.Millisecond)
					cancel()
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}()
		_, err = s.SolveContext(ctx)
		cancel()
		if errors.Is(err, context.Canceled) && s.spare.Stats().Decisions > 0 {
			return s.spare
		}
	}
	t.Fatalf("no cancellation landed inside the search (last err %v)", err)
	return nil
}

// spareFromPanic returns the spare a session of p keeps after a
// question a CONFSYNTH_FAULTS solver panic cut short.
func spareFromPanic(t *testing.T, p *core.Problem) *core.Synthesizer {
	t.Helper()
	plan, err := faults.Parse(faults.SatSolvePanic + "=1")
	if err != nil {
		t.Fatal(err)
	}
	s := mustSession(t, p, 1)
	func() {
		defer faults.Set(plan)()
		defer func() {
			if recover() == nil {
				t.Fatal("the injected solver panic did not reach the caller")
			}
		}()
		s.Solve()
	}()
	if s.spare == nil {
		t.Fatal("a session kept no spare after a panicked question")
	}
	return s.spare
}

// TestSessionRecycledQuestionsMatchFreshClones: a session builds each
// question's synthesizer in the memory of the last one (the spare), and
// every such question is the question a fresh clone of the template
// answers — the same solver state before the search (Digest), the same
// design and the same counters after it — across a thirteen-point
// slider sweep, whatever the first spare was: a synthesizer of a smaller
// family, of a larger one, one whose search a context cancellation cut
// short, or one a fault-injected panic cut short.
func TestSessionRecycledQuestionsMatchFreshClones(t *testing.T) {
	p := recycleProblem(t, 10)
	spares := []struct {
		name string
		make func(*testing.T) *core.Synthesizer
	}{
		{"smaller family", func(t *testing.T) *core.Synthesizer { return spareFromSolve(t, recycleProblem(t, 5)) }},
		{"larger family", func(t *testing.T) *core.Synthesizer { return spareFromSolve(t, recycleProblem(t, 16)) }},
		{"cancelled mid-search", spareFromCancel},
		{"panicked", func(t *testing.T) *core.Synthesizer { return spareFromPanic(t, p) }},
	}
	for _, sp := range spares {
		t.Run(sp.name, func(t *testing.T) {
			s := mustSession(t, p, 1)
			s.spare = sp.make(t)
			for i, th := range recycleSweep(p.Thresholds) {
				label := fmt.Sprintf("point %d %+v", i, th)
				q := *p
				q.Thresholds = th
				if err := s.Retarget(&q); err != nil {
					t.Fatalf("%s: Retarget: %v", label, err)
				}
				fresh, err := s.tmpl.Clone(th, q.Options.Solver)
				if err != nil {
					t.Fatal(err)
				}
				wantDigest := fresh.Digest()
				want, wantErr := fresh.Run(core.Query{Thresholds: th})

				var got *core.Design
				var gotErr error
				var gotDigest string
				var gotStats core.ModelStats
				spare := s.spare
				err = s.canonical(func(syn *core.Synthesizer) error {
					if syn == spare {
						t.Fatalf("%s: the question was asked on the spare itself", label)
					}
					gotDigest = syn.Digest()
					got, gotErr = syn.Run(core.Query{Thresholds: th})
					gotStats = syn.Stats()
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if gotDigest != wantDigest {
					t.Fatalf("%s: the recycled question starts from state %.12s, a fresh clone from %.12s", label, gotDigest, wantDigest)
				}
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: the recycled question answers %+v (%v), a fresh clone %+v (%v)", label, got, gotErr, want, wantErr)
				}
				if st := fresh.Stats(); gotStats != st {
					t.Fatalf("%s: the recycled question searched\n%+v\na fresh clone\n%+v", label, gotStats, st)
				}
			}
		})
	}
}
