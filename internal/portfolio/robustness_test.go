package portfolio

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/faults"
	"configsynth/internal/smt"
)

// waitGoroutines polls until the goroutine count settles at or below
// want, tolerating runtime helpers that exit asynchronously.
func waitGoroutines(t *testing.T, want int) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestGuardReapsWatchersOver100CancelledSolves is the goroutine-hygiene
// satellite: every *Context call must reap its re-asserting interrupt
// watcher, so 100 cancelled solves leave the goroutine count where it
// started.
func TestGuardReapsWatchersOver100CancelledSolves(t *testing.T) {
	p := hardProblem(t)
	s, err := NewRacing(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Millisecond)
			cancel()
		}()
		_, _, err := s.MaxIsolationContext(ctx, p.Thresholds.UsabilityTenths, p.Thresholds.CostBudget)
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: %v", i, err)
		}
		cancel()
	}
	if after := waitGoroutines(t, before); after > before {
		t.Fatalf("goroutines leaked across cancelled solves: %d -> %d", before, after)
	}
}

// TestGuardReapsWatcherWhenQueryPanics: a solver panic unwinding
// through guard (the path panic containment relies on) must still stop
// the watcher and re-arm the solvers.
func TestGuardReapsWatcherWhenQueryPanics(t *testing.T) {
	plan, err := faults.Parse("seed=3," + faults.SatSolvePanic + "=1")
	if err != nil {
		t.Fatal(err)
	}
	defer faults.Set(plan)()

	p := easyProblem(t)
	s, err := NewRacing(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("rate-1 panic plan did not panic")
				}
			}()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s.SolveContext(ctx)
		}()
	}
	if after := waitGoroutines(t, before); after > before {
		t.Fatalf("goroutines leaked across panicking solves: %d -> %d", before, after)
	}
}

// TestRaceRethrowsWhenAllWorkersPanic: with every worker poisoned, the
// race cannot produce a status, so the panic must escape to the caller
// (where the service's containment layer converts it into a failed
// job) and every worker must be retired. Only a descent races, so the
// race is reached through an optimisation query.
func TestRaceRethrowsWhenAllWorkersPanic(t *testing.T) {
	plan, err := faults.Parse("seed=3," + faults.SatSolvePanic + "=1")
	if err != nil {
		t.Fatal(err)
	}
	defer faults.Set(plan)()

	p := easyProblem(t)
	s, err := NewRacing(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a descent with all workers panicking did not panic")
			}
		}()
		s.MaxIsolation(p.Thresholds.UsabilityTenths, p.Thresholds.CostBudget)
	}()
	if len(s.work) != 3 {
		t.Fatalf("the race cloned %d workers, want 3", len(s.work))
	}
	for i, d := range s.dead {
		if !d {
			t.Errorf("worker %d not retired after panicking", i)
		}
	}
	if got := s.PanicsRecovered(); got != 0 {
		t.Errorf("PanicsRecovered = %d for a rethrown race, want 0", got)
	}
	// A retired portfolio must keep panicking (deterministically), not
	// hang or return garbage.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("fully-retired portfolio did not panic")
			}
		}()
		s.MaxIsolation(p.Thresholds.UsabilityTenths, p.Thresholds.CostBudget)
	}()
}

// TestRaceAbsorbsPartialPanics drives a seeded low-rate panic plan
// through repeated solves: panics that leave at least one worker
// standing must be absorbed (query completes, worker retired, counter
// bumped), and only all-worker wipeouts may escape. The schedule is
// deterministic for the fixed seed; the loop bounds exist so the test
// fails loudly rather than spinning if the plan never fires.
func TestRaceAbsorbsPartialPanics(t *testing.T) {
	plan, err := faults.Parse("seed=11," + faults.SatSolvePanic + "=0.15")
	if err != nil {
		t.Fatal(err)
	}
	defer faults.Set(plan)()

	p := easyProblem(t)
	absorbed := false
	completedWithRetired := false
	for i := 0; i < 40 && !(absorbed && completedWithRetired); i++ {
		s, err := NewRacing(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		panicked := func() (panicked bool) {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			if _, _, err := s.MaxIsolation(p.Thresholds.UsabilityTenths, p.Thresholds.CostBudget); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			return false
		}()
		if s.PanicsRecovered() > 0 {
			absorbed = true
			retired := 0
			for _, d := range s.dead {
				if d {
					retired++
				}
			}
			if retired == 0 {
				t.Fatal("panics absorbed but no worker retired")
			}
			if !panicked {
				completedWithRetired = true
			}
		}
	}
	if !absorbed {
		t.Error("no panic was absorbed in 40 runs at rate 0.15")
	}
	if !completedWithRetired {
		t.Error("no query completed after absorbing a worker panic")
	}
}

// TestAnytimeDesignAfterDeadline is the degrade-to-anytime unit test:
// a deadline that lands mid-descent (forced by stretching every solve
// with an injected delay) leaves an incumbent the portfolio can
// re-extract as a feasible, explicitly inexact design.
func TestAnytimeDesignAfterDeadline(t *testing.T) {
	plan, err := faults.Parse("seed=5," + faults.SatSolveDelay + "=1:100ms")
	if err != nil {
		t.Fatal(err)
	}
	defer faults.Set(plan)()

	p := easyProblem(t)
	s, err := NewRacing(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	_, d, err := s.MaxIsolationContext(ctx, p.Thresholds.UsabilityTenths, p.Thresholds.CostBudget)
	if err == nil {
		// The probes beat the deadline despite the injected delay; the
		// exact answer makes degrading moot but must then be exact.
		if !d.Exact {
			t.Fatal("completed descent returned an inexact design")
		}
		t.Skip("descent finished under the deadline; nothing to degrade")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	ad, ok := s.AnytimeDesign()
	if !ok {
		t.Fatal("no anytime design although the base feasibility race passed")
	}
	if ad.Exact {
		t.Error("anytime design marked exact")
	}
	if ad.Usability*10 < float64(p.Thresholds.UsabilityTenths)-0.5 {
		t.Errorf("anytime design violates the usability threshold: %.2f < %d tenths",
			ad.Usability*10, p.Thresholds.UsabilityTenths)
	}
	if ad.Cost > p.Thresholds.CostBudget {
		t.Errorf("anytime design exceeds the cost budget: %d > %d", ad.Cost, p.Thresholds.CostBudget)
	}
}

// TestAnytimeDesignAbsentWithoutIncumbent: a fresh solver (no descent
// run) has nothing to degrade to.
func TestAnytimeDesignAbsentWithoutIncumbent(t *testing.T) {
	p := easyProblem(t)
	s, err := NewRacing(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.AnytimeDesign(); ok {
		t.Error("AnytimeDesign returned a design before any optimization ran")
	}
	// And after a completed descent the incumbent matches a feasible
	// model too (degrading after success is harmless).
	if _, _, err := s.MaxIsolation(p.Thresholds.UsabilityTenths, p.Thresholds.CostBudget); err != nil {
		t.Fatal(err)
	}
	if d, ok := s.AnytimeDesign(); !ok || d == nil {
		t.Error("no anytime design after a successful descent")
	}
}

// TestOneWorkerRaceRearmsAfterASpuriousInterrupt: a race re-arms its
// workers when they rejoin, whatever its width. A spurious cancellation
// (PortfolioProbeInterrupt at rate 1) lands on the first live worker of
// one race; on one worker that race loses its answer, but the races
// after it must answer what they answer on two workers instead of
// finding the interrupt still set.
func TestOneWorkerRaceRearmsAfterASpuriousInterrupt(t *testing.T) {
	plan, err := faults.Parse(faults.PortfolioProbeInterrupt + "=1")
	if err != nil {
		t.Fatal(err)
	}
	p := easyProblem(t)
	probe := func(w *core.Synthesizer) smt.Status { return w.ProbeStatus(p.Thresholds, false) }
	after := func(workers int) []smt.Status {
		s := mustSession(t, p, workers)
		restore := faults.Set(plan)
		s.raceStatus(probe)
		restore()
		return []smt.Status{s.raceStatus(probe), s.raceStatus(probe)}
	}
	want := after(2)
	if want[0] == smt.Unknown || want[1] == smt.Unknown {
		t.Fatalf("two workers answered %v after the interrupted race, want definitive statuses", want)
	}
	if got := after(1); got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("one worker answered %v after the interrupted race, two answered %v", got, want)
	}
}
