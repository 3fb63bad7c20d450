package portfolio

import (
	"context"
	"errors"
	"testing"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/netgen"
)

// hardProblem generates an instance whose exact MaxIsolation runs for
// minutes under an unlimited probe budget — the "hung probe" the
// cancellation tests need. (Measured: >5 min at 20 hosts.)
func hardProblem(t *testing.T) *core.Problem {
	t.Helper()
	p, err := netgen.Generate(netgen.Config{
		Hosts: 20, Routers: 10, Seed: 7, CRFraction: 0.15,
		Thresholds: core.Thresholds{IsolationTenths: 60, UsabilityTenths: 60, CostBudget: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Options.ProbeBudget = -1 // unlimited: nothing but cancellation stops a probe
	return p
}

func easyProblem(t *testing.T) *core.Problem {
	t.Helper()
	p, err := netgen.Generate(netgen.Config{
		Hosts: 6, Routers: 3, Seed: 11, CRFraction: 0.2,
		Thresholds: core.Thresholds{IsolationTenths: 20, UsabilityTenths: 50, CostBudget: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSolveContextCancelReturnsPromptly is the satellite acceptance
// test: a hung optimization probe must return promptly once the context
// is cancelled, in both delegate (K<=1) and racing (K>1) modes.
func TestSolveContextCancelReturnsPromptly(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(map[int]string{1: "delegate", 3: "racing"}[workers], func(t *testing.T) {
			p := hardProblem(t)
			p.Options.Workers = workers
			s, err := New(p, workers)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(100 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, _, err = s.MaxIsolationContext(ctx, p.Thresholds.UsabilityTenths, p.Thresholds.CostBudget)
			elapsed := time.Since(start)
			// A design is acceptable (anytime best-found); an error must be
			// the cancellation, not a misreported budget failure.
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled or an anytime design", err)
			}
			if elapsed > 10*time.Second {
				t.Fatalf("cancelled solve took %v; want prompt return (uncancelled runs take minutes)", elapsed)
			}
			// The solver must be re-armed and usable afterwards.
			if _, err := s.Run(context.Background(), core.Query{Thresholds: core.Thresholds{CostBudget: 1000}}); err != nil {
				t.Fatalf("solver unusable after cancellation: %v", err)
			}
		})
	}
}

func TestSolveContextDeadline(t *testing.T) {
	p := hardProblem(t)
	s, err := NewRacing(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	// MaxIsolation (not plain Solve): the feasibility check alone can
	// beat a 50ms deadline, but the exact descent runs for minutes, so
	// only the deadline can end it. An anytime design is acceptable if a
	// probe lands exactly on the deadline.
	_, d, err := s.MaxIsolationContext(ctx, p.Thresholds.UsabilityTenths, p.Thresholds.CostBudget)
	if err == nil && d.Exact {
		t.Fatal("exact optimum under a 50ms deadline; instance lost its hardness")
	}
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded or an anytime design", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline-bounded solve took %v", elapsed)
	}
}

func TestSolveContextAlreadyCancelled(t *testing.T) {
	p := easyProblem(t)
	s, err := New(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SolveContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled before any solving", err)
	}
}

func TestSolveContextNoDeadlinePassesThrough(t *testing.T) {
	p := easyProblem(t)
	s, err := NewRacing(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.SolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if d.Isolation != want.Isolation || d.Cost != want.Cost {
		t.Errorf("ctx and plain solve disagree: (%v, %v) vs (%v, %v)",
			d.Isolation, d.Cost, want.Isolation, want.Cost)
	}
}

// TestBoundObserverStreamsImprovements checks the anytime hook: a
// MaxIsolation run on the engine path reports monotonically
// non-decreasing isolation bounds, ending at the achieved optimum.
func TestBoundObserverStreamsImprovements(t *testing.T) {
	p := easyProblem(t)
	s, err := NewRacing(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	var bounds []int64
	s.SetBoundObserver(func(kind core.ThresholdKind, v int64) {
		if kind != core.ThresholdIsolation {
			t.Errorf("unexpected bound kind %v", kind)
		}
		bounds = append(bounds, v)
	})
	iso, _, err := s.MaxIsolationContext(context.Background(), p.Thresholds.UsabilityTenths, p.Thresholds.CostBudget)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) == 0 {
		t.Fatal("observer saw no bounds during an optimization descent")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			t.Errorf("bounds not monotone: %v", bounds)
		}
	}
	if last := bounds[len(bounds)-1]; last > int64(iso*10+0.5) {
		t.Errorf("last streamed bound %d exceeds achieved isolation %.2f", last, iso)
	}
	s.SetBoundObserver(nil)
}
