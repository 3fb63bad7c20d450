package portfolio

import (
	"cmp"
	"context"
	"errors"
	"sync"
	"time"

	"configsynth/internal/core"
)

// This file is the one entry every query takes: Run maps context
// cancellation and deadlines onto the solvers' cooperative
// Interrupt/ClearInterrupt protocol, which is the substrate confserved
// builds per-job deadlines and client-disconnect cancellation on.
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

// Run answers q under ctx: cancellation or deadline expiry interrupts
// the solvers cooperatively and returns ctx.Err(), and a clause-arena
// overflow returns as core.ErrModelTooLarge. The sequential arm answers
// everything on its own synthesizer. An engine races the descent of an
// optimisation and extracts the design at the optimum; a plain check
// goes straight to a canonical synthesizer and never races — the
// extraction decides satisfiability itself (design, core and budget
// error all come from it), so a raced status would only be computed
// twice.
func (s *Solver) Run(ctx context.Context, q core.Query) (d *core.Design, err error) {
	err = s.guard(ctx, func() (err error) {
		if s.seq == nil && q.Optimise != 0 {
			d, err = s.optimise(q)
			return err
		}
		return s.canonical(func(syn *core.Synthesizer) (err error) {
			d, err = syn.Run(q)
			return err
		})
	})
	return d, err
}

// interruptAll asks every solver — the live ones (the sequential arm's,
// or the synthesizers an engine's questions hold) and the raced workers
// — to abandon its current check.
func (s *Solver) interruptAll() {
	s.canonMu.Lock()
	defer s.canonMu.Unlock()
	for _, syn := range s.live {
		syn.Interrupt()
	}
	for _, w := range s.work {
		w.Interrupt()
	}
}

// clearAll re-arms every solver after a context cancellation, so the
// Solver remains usable for later queries: the sequential arm's and the
// raced workers. An engine's other synthesizers are put back with their
// question, and none is live when this runs.
func (s *Solver) clearAll() {
	if s.seq != nil {
		s.seq.ClearInterrupt()
	}
	for _, w := range s.work {
		w.ClearInterrupt()
	}
}

// guard runs query under ctx: when ctx is cancelled or its deadline
// expires, every solver is interrupted (and re-interrupted each tick)
// until the query returns. The returned error is ctx.Err() whenever the
// context was the cause of an early exit, and context.DeadlineExceeded
// whenever the query returned after the deadline by the wall clock,
// whatever it answered: the runtime timer behind ctx can fire tens of
// milliseconds late on a busy machine, and an optimisation it has not
// interrupted yet — or one whose interrupted probes only ended its
// cheap pass early — goes on to prove an optimum no caller can still
// wait for. A query that completed with a definitive answer before the
// deadline, or despite a late cancellation, keeps its answer.
func (s *Solver) guard(ctx context.Context, query func() error) error {
	// A clause-arena overflow (ErrModelTooLarge) unwinds as a panic from
	// the SAT core; it is not a solver bug but a stated capacity limit,
	// so it is surfaced as an ordinary typed error instead of reaching
	// the service's panic containment as a worker death.
	query = tooLargeToError(query)
	// The runtime timer behind a context deadline can fire well after the
	// deadline has passed (it is not a hard-real-time mechanism), leaving
	// ctx.Err() nil for milliseconds on a busy machine. A query must not
	// start — and set an anytime incumbent — after its deadline is already
	// over, so check the wall clock, not just the timer.
	if late(ctx) {
		return cmp.Or(ctx.Err(), context.DeadlineExceeded)
	}
	if ctx.Done() == nil {
		return query()
	}
	s.ctx = ctx // for stopped, until the query returns
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
		s.ctx = nil
	}()
	err := query()
	if cerr := ctx.Err(); cerr != nil && interrupted(err) {
		return cerr
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return err
}

// stopped reports whether the running query's context has fired or its
// deadline has passed by the wall clock. From then on a race answers
// Unknown without a probe, and a synthesizer get hands out starts
// interrupted, so that what is left of a descent searches nothing while
// the watcher's next tick is still to come.
func (s *Solver) stopped() bool { return s.ctx != nil && late(s.ctx) }

// late reports whether ctx has fired or its deadline has passed by the
// wall clock.
func late(ctx context.Context) bool {
	d, ok := ctx.Deadline()
	return ctx.Err() != nil || ok && !time.Now().Before(d)
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
