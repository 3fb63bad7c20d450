package service

// This file is the one lifecycle every job goes through, whichever door
// it came in by (Submit, journal replay, adoption of a dead peer's
// journal) and whichever way it ends (cache hit, solve, peer fill,
// offload, deadline, panic, takeover):
//
//	admit    answer from the result cache, or clamp the deadline
//	enqueue  the entry point's own policy (accept for Submit, requeue
//	         for replay and adoption)
//	runJob   claim, peer fill, solve (the mode picks the arm; an
//	         offload solves on a peer first)
//	settle   counters, cache, wake, retire, journal
//
// settle is the only caller of (*Job).finish, so the order of those
// last steps is written once.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/decomp"
	"configsynth/internal/portfolio"
)

// admit is the admission every entry point shares. A job whose
// (fingerprint, mode) has a stored result is answered on the spot;
// otherwise the job gets its deadline — clamped here and nowhere else —
// and admit reports true: the caller enqueues it under its own policy.
func (s *Service) admit(j *Job, timeout time.Duration, parent context.Context) bool {
	if e, ok := s.cache.Get(cacheKey(j.Fingerprint, j.Mode)); ok {
		s.answer(j, hitOf(e), nil)
		return false
	}
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	if parent == nil {
		parent = context.Background()
	}
	j.timeout = timeout
	j.ctx, j.cancel = context.WithTimeout(parent, timeout)
	return true
}

// readmit is admit for a journaled submit record — this node's own after
// a restart, or a dead peer's during takeover — under the record's
// original ID, so clients polling GET /v1/jobs/{id} still find the job.
// Its source is checked against its fingerprint and looked up before
// anything is built, as a request is: a record the cache answers never
// builds its problem. A record whose source no longer decodes to its
// fingerprint becomes an explicit failed job rather than a silently
// dropped one; the fault is the journal's, not the client's, so it is
// an ordinary error (HTTP 500) on whichever node finds it.
func (s *Service) readmit(rec submitRecord) (*Job, bool) {
	in, err := rec.check(rec.Fingerprint)
	j := newJob(rec.ID, rec.Mode, in.prob, rec.Fingerprint)
	j.journaled = true
	j.src = &rec.JobSource
	if err == nil {
		if !s.admit(j, time.Duration(rec.TimeoutMS)*time.Millisecond, nil) {
			return j, false // answered from the cache
		}
		if j.prob, err = in.problem(); err == nil {
			return j, true
		}
	}
	s.answer(j, nil, fmt.Errorf("journaled job cannot be rebuilt: %w", err))
	return j, false
}

// answer settles a job at admission, before it ever reaches the queue.
func (s *Service) answer(j *Job, res *Result, err error) {
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.mu.Unlock()
	j.startRun()
	s.settle(j, res, err)
}

// cached is one result-cache entry: the stored result and, from its
// first hit on, the response every hit of it gets — two hits differ in
// job_id alone, so the body is kept as the bytes either side of that
// value, in one allocation of exactly their size. Rendered on the first
// hit, not in seed: most entries are never hit (cold_solve stores 67
// results of 275 KB a round and reads none back) and must pay neither
// the rendering nor the memory.
type cached struct {
	res        *Result
	render     sync.Once
	head, tail []byte
}

// hitOf copies a stored result for one response. Stored results carry
// neither Cached nor Session (see seed), so only Cached needs setting,
// and the entry whose body writeJobResult will send.
func hitOf(e *cached) *Result {
	hit := *e.res
	hit.Cached, hit.hit = true, e
	return &hit
}

// body is hitOf(stored) as appendResult renders it, split around the job
// id's value. A quote inside a JSON string is always escaped, so the
// first `"job_id": ` is the field itself, whatever the design text holds.
func (e *cached) body() (head, tail []byte) {
	e.render.Do(func() {
		hit := hitOf(e)
		hit.JobID = "?"
		renderResult(hit, func(r []byte) {
			b := make([]byte, len(r)) // exactly its size: the cache holds every byte of it
			copy(b, r)
			at := bytes.Index(b, []byte(`"job_id": `)) + len(`"job_id": `)
			e.head, e.tail = b[:at:at], b[at+len(`"?"`):]
		})
	})
	return e.head, e.tail
}

// requeue hands a re-admitted job to the pool; it never blocks and never
// refuses. Replay finds room in the channel by construction (open sizes
// it for every pending record); an adoption that finds it full runs the
// job on its own goroutine, because takeover must not wait on local
// backpressure.
func (s *Service) requeue(j *Job) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		j.cancel()
		return
	}
	s.jobs[j.ID] = j
	queued := false
	select {
	case s.queue <- j:
		queued = true
	default:
	}
	s.mu.Unlock()
	if !queued {
		s.runAsync(j, nil)
	}
}

// runJob takes one job to its terminal state: claim it, ask the cluster
// for a proven answer, solve it — on peer when one is given and answers,
// here otherwise — and settle it.
func (s *Service) runJob(j *Job, peer Offloader) {
	s.active.Add(1)
	defer s.active.Add(-1)
	if err := j.ctx.Err(); err != nil {
		// Canceled or expired while queued, or settled already by the
		// runJob that offloaded it; settle lets only the first transition
		// through.
		s.settle(j, nil, err)
		return
	}
	if !j.startRun() {
		// Claimed while queued by an offload: its runJob settles it.
		return
	}
	if s.tryPeerFill(j) {
		return
	}
	res, err := s.offload(j, peer)
	if res == nil && err == nil {
		res, err = s.solve(j)
	}
	s.settle(j, res, err)
}

// offload solves the job on peer, if there is one. The peer's result is
// a fresh solve here, whether or not the peer answered from its cache:
// it seeds this node's cache if it is proven, as a local solve would.
// No answer — a lost or refused request, a result for another problem,
// the peer leaving the view — is (nil, nil) while the job's context
// lives, and the job solves here as if it had never left; only the end
// of its own context ends it.
func (s *Service) offload(j *Job, peer Offloader) (*Result, error) {
	if peer != nil {
		if res, ok := peer(j.ctx, *j.src, j.Fingerprint, j.Mode); ok {
			cp := *res
			cp.Cached, cp.Session = false, ""
			return &cp, nil
		}
	}
	return nil, j.ctx.Err()
}

// solve answers the job's query: a filled sat or unsat result (possibly
// Degraded), or the raw error. The mode only picks the arm; the panic
// barrier, the verdict and the timing are the same for both. A panic
// escaping the solver stack (poisoned instance, injected fault) becomes
// a SolverPanicError carrying the stack and the problem fingerprint, so
// the job fails cleanly and the daemon survives.
func (s *Service) solve(j *Job) (res *Result, err error) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			s.panicsRecovered.Add(1)
			res, err = nil, &SolverPanicError{
				Value:       fmt.Sprint(r),
				Stack:       string(debug.Stack()),
				Fingerprint: j.Fingerprint,
			}
		}
	}()
	res = &Result{Mode: j.Mode, Fingerprint: j.Fingerprint, JobID: j.ID}
	arm := s.solveMono
	if j.Mode == ModeDecomp {
		arm = s.solveDecomp
	}
	design, conflict, rendered, err := arm(j, res)
	switch {
	case err != nil:
		return nil, err
	case design != nil:
		res.Status = "sat"
		if !design.Exact && !res.Degraded {
			// The descent was truncated and still returned its incumbent
			// rather than an error: by the solver's own conflict budget, or
			// by an interrupt of the job's context that cut a probe short
			// but missed the extraction after it. Either way the answer is
			// a feasible incumbent, not a proven optimum.
			res.Degraded, res.DegradedReason = true, truncatedBy(j.ctx.Err())
		}
		res.Objective = j.question().Objective(design)
		// A design read from a stored stitch is rendered once per stitch,
		// and its wire forms are shared read-only by every job it answers.
		r := decomp.Memoised(rendered, func() *Result { return render(j.prob, design) })
		res.Design, res.Text = r.Design, r.Text
	default:
		res.Status = "unsat"
		for _, k := range conflict {
			res.Conflict = append(res.Conflict, k.String())
		}
	}
	res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return res, nil
}

// truncatedBy names what cut a descent short, given the job context's
// error: its deadline, a cancellation, or — the context still live — the
// solver's own conflict budget.
func truncatedBy(ctxErr error) string {
	switch {
	case ctxErr == nil:
		return "budget"
	case errors.Is(ctxErr, context.DeadlineExceeded):
		return "deadline"
	default:
		return "canceled"
	}
}

// question is the job's query as data: the mode picks which threshold,
// if any, the problem's own sliders leave free.
func (j *Job) question() core.Query {
	return core.Query{Optimise: optimised[j.Mode], Thresholds: j.prob.Thresholds}
}

// optimised maps a mode to the threshold it optimises. A decomposed
// solve minimises cost region by region; ModeSolve optimises nothing.
var optimised = map[Mode]core.ThresholdKind{
	ModeMaxIsolation: core.ThresholdIsolation,
	ModeMaxUsability: core.ThresholdUsability,
	ModeMinCost:      core.ThresholdCost,
	ModeDecomp:       core.ThresholdCost,
}

// solveMono is the monolithic arm: one portfolio engine (or a warm one
// from the what-if session registry) answers the query under the job
// context. It returns the design, or the threshold kinds of the unsat
// core with a nil design, and no memo: the design is this job's own.
// When the deadline or a cancellation cuts an optimization short after
// the descent has proven a feasible incumbent, that design (Exact=false)
// is the answer, marked degraded with the reason, instead of a bare
// timeout error.
func (s *Service) solveMono(j *Job, res *Result) (*core.Design, []core.ThresholdKind, *decomp.Memo, error) {
	syn, reused, err := s.solverFor(j)
	if err != nil {
		if !errors.Is(err, core.ErrModelTooLarge) {
			// ErrModelTooLarge is a capacity verdict (HTTP 422); any other
			// encode failure is a malformed request.
			err = &BadRequestError{Msg: err.Error()}
		}
		return nil, nil, nil, err
	}
	syn.SetBoundObserver(func(kind core.ThresholdKind, v int64) {
		val := float64(v)
		if kind != core.ThresholdCost {
			val = float64(v) / 10 // tenths → 0–10 scale
		}
		j.publish(Event{Event: "bound", Kind: kind.String(), Value: val})
	})

	design, qerr := s.query(j, syn, reused)
	var kinds []core.ThresholdKind
	var conflict *core.ThresholdConflictError
	switch {
	case errors.As(qerr, &conflict):
		kinds, qerr = conflict.Core, nil
	case j.Mode != ModeSolve && (errors.Is(qerr, context.Canceled) || errors.Is(qerr, context.DeadlineExceeded)):
		// AnytimeDesign re-extracts through the engine, so it runs before
		// the check-in below resets the query state.
		if ad, ok := syn.AnytimeDesign(); ok {
			res.Degraded, res.DegradedReason = true, truncatedBy(qerr)
			design, qerr = ad, nil
		}
	}
	if j.whatif {
		res.Session = "fresh"
		if reused {
			res.Session = "reused"
		}
		// A what-if job's engine goes (back) into the registry before the
		// job's terminal transition is visible: a client that submits its
		// next delta the moment this one finishes must find the session. An
		// engine a panic escaped from never gets here and is dropped, its
		// state being suspect.
		syn.ResetQueryState()
		s.sessions.Put(syn.Family(), syn)
	}
	return design, kinds, nil, qerr
}

// solverFor builds (or checks out) the job's portfolio engine — an
// engine even for one worker, so the descent of an optimisation is
// driven centrally, which is what makes bound streaming work and results
// independent of K. Ordinary jobs get a fresh one-shot engine
// (NewRacing), which searches the model it encoded, and drop it. What-if
// jobs consult the session registry first: a warm engine for the problem
// family is retargeted at the job's thresholds and re-solves only the
// delta; on a miss a fresh session (NewSession, whose template stays
// pristine) is, after the job, checked in for the family's next delta.
// The job, not the engine, says which it is.
func (s *Service) solverFor(j *Job) (syn *portfolio.Solver, reused bool, err error) {
	build := portfolio.NewRacing
	if j.whatif {
		family := j.family(j.prob)
		if sess, ok := s.sessions.Take(family); ok {
			if rerr := sess.RetargetFamily(j.prob, family); rerr == nil {
				return sess, true, nil
			}
			// A session that cannot retarget within its own family is
			// defective; drop it and fall through to a fresh one.
		}
		build = portfolio.NewSession
	}
	syn, err = build(j.prob, s.cfg.SolverWorkers)
	return syn, false, err
}

// query runs the job's query on syn. On the way out — by return or by
// panic, and before the caller can check a session back in for another
// job to use — it folds the search this job did into the fleet totals.
// A reused session carries counters from earlier jobs; only the share
// past the snapshot is this job's. Worker panics the portfolio absorbed
// internally (survivors kept the query alive) still count as contained.
func (s *Service) query(j *Job, syn *portfolio.Solver, reused bool) (*core.Design, error) {
	var statsBase core.ModelStats
	var panicsBase uint64
	if reused {
		statsBase, panicsBase = syn.Stats(), syn.PanicsRecovered()
	}
	defer func() {
		s.panicsRecovered.Add(int64(syn.PanicsRecovered() - panicsBase))
		s.mu.Lock()
		s.totals.Add(syn.Stats().Since(statsBase))
		s.mu.Unlock()
	}()
	return syn.Run(j.ctx, j.question())
}

// proven reports whether a result is a fact about its problem — an unsat
// verdict or an exact, undegraded design — and so may be cached, shipped
// to a peer and replayed from a journal. An anytime design truncated by
// one job's deadline or budget must never be served to a patient client,
// nor a decomposed unsat that the monolithic encoding might still
// satisfy (Conservative).
func proven(res *Result) bool {
	if res == nil {
		return false
	}
	switch res.Status {
	case "unsat":
		return res.Decomp == nil || !res.Decomp.Conservative
	case "sat":
		return res.Design != nil && res.Design.Exact && !res.Degraded
	}
	return false
}

// cacheKey scopes a fingerprint by query mode: the same problem under
// solve and max-isolation has different answers.
func cacheKey(fp string, mode Mode) string { return string(mode) + ":" + fp }

// seed stores a result under (fingerprint, mode) if it is proven, and
// drops it otherwise. The stored copy describes the solve, not the
// response it first went out on: no Cached, no Session. A key's entry is
// replaced whole, so rendered bytes never outlive the result they show.
// Returns the new entry, nil for a dropped result.
func (s *Service) seed(fingerprint string, mode Mode, res *Result) *cached {
	if !proven(res) {
		return nil
	}
	cp := *res
	cp.Cached, cp.Session, cp.hit = false, "", nil
	e := &cached{res: &cp}
	s.cache.Put(cacheKey(fingerprint, mode), e)
	return e
}

// settle is the one terminal transition. From (res, err) alone it
// derives the state (finish: done, canceled for a context error, failed
// otherwise), bumps the matching outcome counters — the replay gate's
// among them — and stores a proven result that is new to this node (a
// local solve or a peer's answer to an offload, not a hit), and only
// then wakes the waiters; after that it retires the job into the bounded
// retention ring and journals the outcome if the submit was journaled.
// Counters and cache come first because a client that sees the job done
// may read /statsz or resubmit at once.
//
// Two runJobs can meet one job — the worker that dequeues it and the
// offload that claimed it — and the rejoin handshake settles jobs it
// does not run, so settle is idempotent: the first call wins, and the
// return value says whether this one did. The rejoin handshake's
// ErrSuperseded differs in two ways: it counts under jobs_dropped_stale,
// and the job is deregistered instead of retained — the adopter is its
// one holder now.
func (s *Service) settle(j *Job, res *Result, err error) bool {
	superseded := errors.Is(err, ErrSuperseded)
	won := j.finish(res, err, func(state JobState) {
		if j.replayed {
			s.replayPending.Add(-1)
		}
		switch {
		case superseded:
			s.droppedStale.Add(1)
		case state == StateDone:
			s.completed.Add(1)
			if res.Degraded {
				s.degraded.Add(1)
			}
			if !res.Cached {
				s.seed(j.Fingerprint, j.Mode, res)
			}
		case state == StateCanceled:
			s.canceled.Add(1)
		default:
			s.failed.Add(1)
		}
	})
	if !won {
		return false
	}
	s.mu.Lock()
	if superseded {
		delete(s.jobs, j.ID)
	} else {
		// The oldest finished job is forgotten once the ring is full, so
		// the registry cannot grow without bound under sustained traffic.
		s.finished = append(s.finished, j.ID)
		for len(s.finished) > finishedRetention {
			delete(s.jobs, s.finished[0])
			s.finished = s.finished[1:]
		}
	}
	s.mu.Unlock()
	if j.journaled {
		s.journalResult(j)
	}
	return true
}
