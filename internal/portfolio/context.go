package portfolio

import (
	"context"
	"errors"
	"sync"
	"time"

	"configsynth/internal/core"
)

// This file maps context cancellation and deadlines onto the solvers'
// cooperative Interrupt/ClearInterrupt protocol, giving every synthesis
// query a ctx-aware variant. It is the substrate confserved builds
// per-job deadlines and client-disconnect cancellation on.
//
// The watcher goroutine re-asserts the interrupt on a short tick rather
// than firing it once: probe loops call ClearInterrupt between probes
// (so a stale portfolio cancellation cannot leak into the next probe),
// and a single interrupt landing just before such a re-arm would be
// lost, leaving the next probe running unbounded. Re-asserting until the
// query returns closes that race; the tick is three orders of magnitude
// cheaper than any non-trivial probe.

// reassertInterval is the watcher's re-interrupt period after ctx fires.
const reassertInterval = time.Millisecond

// interruptAll asks every solver — raced workers and the canonical
// extractor — to abandon its current check. In session mode there is no
// long-lived canonical; the live per-query extractor (if an extraction
// is in flight) is interrupted instead.
func (s *Solver) interruptAll() {
	if s.canon != nil {
		s.canon.Interrupt()
	}
	s.extractMu.Lock()
	if s.extract != nil {
		s.extract.Interrupt()
	}
	work := s.work
	s.extractMu.Unlock()
	for _, w := range work {
		w.Interrupt()
	}
}

// clearAll re-arms every solver after a context cancellation, so the
// Solver remains usable for later queries. Session per-query extractors
// are not re-armed: each one is discarded with its query.
func (s *Solver) clearAll() {
	if s.canon != nil {
		s.canon.ClearInterrupt()
	}
	for _, w := range s.work {
		w.ClearInterrupt()
	}
}

// guard runs query under ctx: when ctx is cancelled or its deadline
// expires, every solver is interrupted (and re-interrupted each tick)
// until the query returns. The returned error is ctx.Err() whenever the
// context was the cause of an early exit; a query that completed with a
// definitive answer despite a late cancellation keeps its answer.
func (s *Solver) guard(ctx context.Context, query func() error) error {
	// A clause-arena overflow (ErrModelTooLarge) unwinds as a panic from
	// the SAT core; it is not a solver bug but a stated capacity limit,
	// so it is surfaced as an ordinary typed error instead of reaching
	// the service's panic containment as a worker death.
	query = tooLargeToError(query)
	if ctx == nil {
		return query()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// The runtime timer behind a context deadline can fire well after the
	// deadline has passed (it is not a hard-real-time mechanism), leaving
	// ctx.Err() nil for milliseconds on a busy machine. A query must not
	// start — and set an anytime incumbent — after its deadline is already
	// over, so check the wall clock, not just the timer.
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	if ctx.Done() == nil {
		return query()
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-done:
			return
		case <-ctx.Done():
		}
		t := time.NewTicker(reassertInterval)
		defer t.Stop()
		for {
			s.interruptAll()
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	// The watcher is reaped by defer, not straight-line code: a panic
	// inside query() (a poisoned solver under fault injection) must still
	// stop the re-assert loop and re-arm the solvers on its way up to the
	// service's containment layer, or every contained panic would leak a
	// ticking goroutine.
	defer func() {
		close(done)
		wg.Wait()
		s.clearAll()
	}()
	err := query()
	if cerr := ctx.Err(); cerr != nil && interrupted(err) {
		return cerr
	}
	return err
}

// interrupted reports whether err is the kind of failure a cooperative
// interrupt produces (a budget-exhausted/Unknown outcome). Definitive
// answers — Sat designs and genuine Unsat cores — are never reinterpreted
// as cancellation, since an interrupt can only yield Unknown.
func interrupted(err error) bool {
	return errors.Is(err, core.ErrBudgetExceeded)
}

// tooLargeToError wraps a query so that a panic carrying
// core.ErrModelTooLarge returns as that error; every other panic
// continues to unwind into the caller's containment layer.
func tooLargeToError(query func() error) func() error {
	return func() (qerr error) {
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); ok && errors.Is(err, core.ErrModelTooLarge) {
					qerr = err
					return
				}
				panic(r)
			}
		}()
		return query()
	}
}

// guardDesign runs a design-producing query under guard; the design is
// dropped when the guard reports an error. All five ctx-aware queries go
// through it: an optimization's value is a field of its design.
func (s *Solver) guardDesign(ctx context.Context, query func() (*core.Design, error)) (*core.Design, error) {
	var d *core.Design
	err := s.guard(ctx, func() (qerr error) {
		d, qerr = query()
		return qerr
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// SolveContext is Solve bounded by ctx: cancellation or deadline expiry
// interrupts the solvers cooperatively and returns ctx.Err().
func (s *Solver) SolveContext(ctx context.Context) (*core.Design, error) {
	return s.guardDesign(ctx, s.Solve)
}

// CheckAtContext is CheckAt bounded by ctx.
func (s *Solver) CheckAtContext(ctx context.Context, th core.Thresholds) (*core.Design, error) {
	return s.guardDesign(ctx, func() (*core.Design, error) { return s.CheckAt(th) })
}

// MaxIsolationContext is MaxIsolation bounded by ctx.
func (s *Solver) MaxIsolationContext(ctx context.Context, usabilityTenths int, costBudget int64) (float64, *core.Design, error) {
	d, err := s.guardDesign(ctx, func() (*core.Design, error) {
		_, d, err := s.MaxIsolation(usabilityTenths, costBudget)
		return d, err
	})
	if err != nil {
		return 0, nil, err
	}
	return d.Isolation, d, nil
}

// MaxUsabilityContext is MaxUsability bounded by ctx.
func (s *Solver) MaxUsabilityContext(ctx context.Context, isolationTenths int, costBudget int64) (float64, *core.Design, error) {
	d, err := s.guardDesign(ctx, func() (*core.Design, error) {
		_, d, err := s.MaxUsability(isolationTenths, costBudget)
		return d, err
	})
	if err != nil {
		return 0, nil, err
	}
	return d.Usability, d, nil
}

// MinCostContext is MinCost bounded by ctx.
func (s *Solver) MinCostContext(ctx context.Context, isolationTenths, usabilityTenths int) (int64, *core.Design, error) {
	d, err := s.guardDesign(ctx, func() (*core.Design, error) {
		_, d, err := s.MinCost(isolationTenths, usabilityTenths)
		return d, err
	})
	if err != nil {
		return 0, nil, err
	}
	return d.Cost, d, nil
}
