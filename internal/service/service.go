// Package service turns ConfigSynth from a batch CLI into a long-lived
// synthesis service: a bounded job queue drained by a worker pool of
// portfolio synthesizers, fronted by a canonical-fingerprint result
// cache so that re-submitted and slider-style re-threshold requests are
// answered from memory instead of the SAT core, with per-job deadlines
// and client-disconnect cancellation wired onto the solvers'
// cooperative interrupts, and anytime streaming of intermediate
// optimization bounds.
//
// cmd/confserved exposes it over HTTP:
//
//	POST /v1/synthesize   spec-format problem in, design out (sync,
//	                      async, or NDJSON-streamed)
//	POST /v1/batch        N named problem variants in one request, each
//	                      its own journaled job (default mode decomp, so
//	                      variants share region-cache entries); results
//	                      stream back as NDJSON in completion order
//	POST /v1/whatif       re-solve a finished job's problem under a
//	                      threshold/link delta, reusing the problem
//	                      family's warm solver session
//	POST /v1/verify       independently validate a design
//	GET  /v1/jobs/{id}    job status, ?stream=1 for NDJSON events
//	GET  /healthz         liveness
//	GET  /readyz          readiness (503 while replaying, saturated, or draining)
//	GET  /statsz          queue depth, cache and solver counters
//
// Every job goes through one lifecycle (lifecycle.go): admit answers
// it from the result cache or gives it its deadline; the entry point
// enqueues it under its own policy (Submit refuses when full and
// journals first, journal replay and adoption never refuse); runJob
// claims it, asks the cluster for a proven answer and runs solve, where
// the query mode only picks the arm (monolithic portfolio or what-if
// session, or decomposition) behind one panic barrier; and settle — the
// single terminal transition — counts the outcome and caches a proven
// result before it wakes the waiters, then retires and journals the job.
//
// With Config.JournalPath set the service is crash-recoverable: jobs
// are journaled to a write-ahead log at accept and at completion, and
// reopening against the same journal replays unfinished work (see
// journal.go). Solver panics are contained per job — solve converts
// them into failed results, and a worker that dies anyway is replaced —
// so one poisoned instance never takes the daemon down.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/decomp"
	"configsynth/internal/lru"
	"configsynth/internal/portfolio"
	"configsynth/internal/spec"
	"configsynth/internal/usability"
	"configsynth/internal/wal"
)

// Config tunes the service. Zero values select the documented defaults.
type Config struct {
	// Workers is the job worker-pool size (default 2): how many synthesis
	// jobs run concurrently.
	Workers int
	// SolverWorkers is the portfolio size per job (default 1): each job
	// races this many diversified solvers per probe.
	SolverWorkers int
	// QueueDepth bounds the job queue (default 64). A full queue rejects
	// submissions with ErrQueueFull (HTTP 429 + Retry-After).
	QueueDepth int
	// CacheEntries bounds the result cache (default 256 entries).
	CacheEntries int
	// DefaultTimeout is the per-job deadline when the request names none
	// (default 120s). The deadline covers queue wait plus solving.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines (default 10m).
	MaxTimeout time.Duration
	// JournalPath, when non-empty, enables the durable job journal at
	// that file path: accepted jobs and terminal results are logged, and
	// Open replays unfinished work after a crash.
	JournalPath string
	// JournalSync fsyncs every journal append (durability against power
	// loss, not just process death) at the cost of one flush per record.
	JournalSync bool
	// SessionEntries bounds the what-if session registry (default 8
	// warm sessions). Each session pins one encoded template in memory
	// and, once an optimization has raced, SolverWorkers clones of it, so
	// the cap is deliberately small.
	SessionEntries int
	// SessionTTL evicts what-if sessions idle longer than this (default
	// 10m); 0 uses the default, negative disables expiry.
	SessionTTL time.Duration
	// RegionWorkers bounds concurrently solved regions inside one
	// ModeDecomp job (default 4).
	RegionWorkers int
	// RegionCacheEntries sizes the decomposed solver's region result
	// cache (default 512). The cache is shared by every ModeDecomp job,
	// which is what makes batch variant sweeps pay only for the regions
	// their edits dirty.
	RegionCacheEntries int
	// NodeID names this service instance in a cluster. When non-empty,
	// job IDs are prefixed with it ("n2-j000017"), so IDs stay globally
	// unique across peers and a shipped journal replayed on a peer
	// keeps its origin's IDs. Empty for single-node deployments.
	NodeID string
}

func (c Config) withDefaults() Config {
	orDefault(&c.Workers, 2)
	orDefault(&c.SolverWorkers, 1)
	orDefault(&c.QueueDepth, 64)
	orDefault(&c.CacheEntries, 256)
	orDefault(&c.DefaultTimeout, 120*time.Second)
	orDefault(&c.MaxTimeout, 10*time.Minute)
	orDefault(&c.SessionEntries, 8)
	if c.SessionTTL == 0 {
		c.SessionTTL = 10 * time.Minute
	}
	orDefault(&c.RegionWorkers, 4)
	orDefault(&c.RegionCacheEntries, 512)
	return c
}

// orDefault sets *v to def when it is zero or negative.
func orDefault[T int | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// finishedRetention bounds how many terminal jobs stay queryable via
// GET /v1/jobs/{id} before the oldest are forgotten.
const finishedRetention = 1024

// Errors reported by Submit.
var (
	// ErrQueueFull means the bounded job queue is at capacity; retry
	// after a short backoff.
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrClosed means the service is shutting down.
	ErrClosed = errors.New("service: closed")
	// ErrJournal means the job could not be made durable: the journal
	// append failed, so the submission is rejected rather than accepted
	// into a state a crash would silently lose.
	ErrJournal = errors.New("service: journal write failed")
)

// SolverPanicError is the failed-job outcome of a contained solver
// panic: the worker recovered it, recorded the panic value and stack,
// and kept the daemon alive. Fingerprint identifies the problem so the
// crash is reproducible offline.
type SolverPanicError struct {
	Value       string
	Stack       string
	Fingerprint string
}

func (e *SolverPanicError) Error() string {
	return fmt.Sprintf("solver panic: %s (problem %s)\n%s", e.Value, e.Fingerprint, e.Stack)
}

// BadRequestError marks client errors (malformed spec, bad mode) so the
// HTTP layer can map them to 400 instead of 500.
type BadRequestError struct{ Msg string }

func (e *BadRequestError) Error() string { return e.Msg }

// Stats is the /statsz payload.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	SolverWorkers int     `json:"solver_workers"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`

	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCanceled  int64 `json:"jobs_canceled"`
	JobsActive    int64 `json:"jobs_active"`

	// NodeID is this instance's cluster identity (empty single-node).
	NodeID string `json:"node_id,omitempty"`

	// PanicsRecovered counts solver panics the service contained: worker
	// and portfolio recoveries that were converted into failed jobs (or
	// absorbed entirely) instead of crashing the daemon.
	PanicsRecovered int64 `json:"panics_recovered"`
	// JobsDegraded counts jobs answered with an anytime (Exact=false)
	// incumbent after their deadline or budget expired mid-optimization.
	JobsDegraded int64 `json:"jobs_degraded"`
	// JobsReplayed counts jobs re-enqueued from the journal at startup.
	JobsReplayed int64 `json:"jobs_replayed"`
	// JournalErrors counts journal appends that failed (and were either
	// rejected at submit or tolerated at result time).
	JournalErrors int64 `json:"journal_errors"`
	// Ready mirrors the /readyz verdict.
	Ready bool `json:"ready"`

	// PeerFillHits / PeerFillMisses count cold jobs answered (or not)
	// from a cluster peer's proven cache before any local solving.
	PeerFillHits   int64 `json:"peer_fill_hits,omitempty"`
	PeerFillMisses int64 `json:"peer_fill_misses,omitempty"`
	// JobsAdopted counts jobs re-enqueued from a dead peer's shipped
	// journal during cluster takeover.
	JobsAdopted int64 `json:"jobs_adopted,omitempty"`
	// JobsDroppedStale counts replayed jobs this node truncated because
	// the rejoin handshake found their IDs adopted by a peer.
	JobsDroppedStale int64 `json:"jobs_dropped_stale,omitempty"`

	// Cache reports the whole-problem result cache. All three stores
	// below are one internal/lru and share its Stats shape.
	Cache lru.Stats `json:"cache"`
	// RegionCache reports the decomposed solver's region-level result
	// cache — hits here are sub-problem reuses inside and across
	// ModeDecomp jobs, counted separately from the whole-problem Cache
	// above.
	RegionCache lru.Stats `json:"region_cache"`
	// Sessions reports the what-if session registry: warm solver state
	// reused across /v1/whatif deltas.
	Sessions lru.Stats `json:"sessions"`
	// Journal reports write-ahead-log health when a journal is
	// configured.
	Journal *wal.Stats `json:"journal,omitempty"`
	// Solver aggregates core.ModelStats across every finished job.
	Solver core.ModelStats `json:"solver"`
}

// Service owns the queue, the worker pool, the job registry, and the
// result cache.
type Service struct {
	cfg   Config
	queue chan *Job
	// cache holds proven results by (mode, fingerprint), each with its
	// hit response once it has been hit (see cached). Results are
	// immutable once stored, so a hit hands out the shared pointer.
	cache *lru.Cache[*cached]
	// sessions holds warm what-if sessions by family fingerprint (the
	// problem with its thresholds zeroed). A job Takes its session rather
	// than sharing it: solver state is single-owner, so a concurrent
	// what-if on the same family misses and solves on a fresh session —
	// no blocking — and the job Puts the session back once it has reset
	// its per-query state (the newer of two wins; one per family is
	// enough). A session pins an encoded template and, from its first
	// optimization on, K warm workers cloned from it, which is too much
	// to keep for a client that has moved on: hence the idle TTL.
	sessions *lru.Cache[*portfolio.Solver]
	decomp   *decomp.Solver // shared region cache across ModeDecomp jobs
	wal      *wal.Log       // nil when no journal is configured
	start    time.Time

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // terminal job IDs, oldest first (bounded retention)
	totals   core.ModelStats
	closed   bool

	// peerFill, when set (cluster mode), is consulted on a cold job
	// before solving: the ring owner of the job's fingerprint may have
	// a proven result. Guarded by peerMu so the cluster layer can wire
	// it after Open.
	peerMu   sync.Mutex
	peerFill PeerFiller
	// journalNotify, when set, fires after every successful journal
	// append; the cluster WAL shipper uses it to ship segments with
	// sub-interval latency. Guarded by peerMu.
	journalNotify func()
	// router, when set, may send a synthesis request elsewhere (see
	// Router). Guarded by peerMu.
	router Router

	nextID          atomic.Int64
	submitted       atomic.Int64
	completed       atomic.Int64
	failed          atomic.Int64
	canceled        atomic.Int64
	active          atomic.Int64
	panicsRecovered atomic.Int64
	degraded        atomic.Int64
	replayed        atomic.Int64
	journalErrors   atomic.Int64
	peerHits        atomic.Int64
	peerMisses      atomic.Int64
	adopted         atomic.Int64
	// replayPending tracks re-enqueued journal jobs that have not yet
	// reached a terminal state (settle counts them down); /readyz reports
	// 503 until it drains.
	replayPending atomic.Int64
	// held is set by OpenHeld: the worker pool has not started because
	// the cluster join handshake must reconcile the journal first.
	// /readyz reports 503 until StartWorkers releases it.
	held atomic.Bool
	// adopting counts in-flight Adopt calls; /readyz reports 503 while
	// a peer's journal is being absorbed so load balancers don't route
	// to a node still rebuilding its cache.
	adopting atomic.Int64
	// droppedStale counts replayed jobs truncated by DropSuperseded —
	// the rejoin handshake found their IDs adopted elsewhere.
	droppedStale atomic.Int64
	// draining flips once shutdown begins: the service stops accepting
	// before it finishes in-flight work.
	draining atomic.Bool

	wg sync.WaitGroup
}

// New starts a service with cfg's worker pool running. It panics if
// the configured journal cannot be opened or replayed — use Open to
// handle that error; New exists for journal-less callers (tests,
// embedded use) where no failure mode remains.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a service, opening and replaying the job journal when
// Config.JournalPath is set: proven journaled results re-seed the
// cache, accepted-but-unfinished jobs are re-enqueued (instantly
// completed when their fingerprint already has a proven answer), and
// the journal is compacted.
func Open(cfg Config) (*Service, error) {
	return open(cfg, true)
}

// OpenHeld opens the service like Open but leaves the worker pool
// unstarted and /readyz at 503: the cluster join handshake runs first,
// truncating journal-replayed jobs whose IDs the cluster adopted while
// this node was down (DropSuperseded), and only then does StartWorkers
// release the pool. Without the hold, a stale replayed job could start
// solving before the handshake learns a peer already owns its ID.
func OpenHeld(cfg Config) (*Service, error) {
	s, err := open(cfg, false)
	if err != nil {
		return nil, err
	}
	s.held.Store(true)
	return s, nil
}

// StartWorkers releases a service opened with OpenHeld: the worker pool
// starts and /readyz stops reporting the hold. Idempotent; a no-op on a
// service Open already started.
func (s *Service) StartWorkers() {
	if s.held.CompareAndSwap(true, false) {
		s.startPool()
	}
}

func (s *Service) startPool() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// open is the constructor body; startWorkers false leaves the pool
// unstarted so crash-recovery tests can inspect and restart
// deterministically.
func open(cfg Config, startWorkers bool) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		cache:    lru.New[*cached](cfg.CacheEntries, 0),
		sessions: lru.New[*portfolio.Solver](cfg.SessionEntries, cfg.SessionTTL),
		decomp: decomp.New(decomp.Options{
			Workers:      cfg.RegionWorkers,
			CacheEntries: cfg.RegionCacheEntries,
		}),
		jobs:  make(map[string]*Job),
		start: time.Now(),
	}

	var pending []submitRecord
	if cfg.JournalPath != "" {
		log, records, err := wal.Open(cfg.JournalPath, wal.Options{Sync: cfg.JournalSync})
		if err != nil {
			return nil, err
		}
		s.wal = log
		st := scanJournal(records, s.idPrefix())
		s.nextID.Store(st.maxID)
		for _, rr := range st.proven {
			s.seed(rr.Fingerprint, rr.Mode, rr.Result)
		}
		recs, err := compactionRecords(st, cfg.CacheEntries)
		if err == nil {
			err = log.Rewrite(recs)
		}
		if err != nil {
			log.Close()
			return nil, fmt.Errorf("service: compacting journal: %w", err)
		}
		pending = st.pending
	}

	// The queue must absorb every replayed job on top of the configured
	// depth, so re-enqueueing below can never block; Submit enforces the
	// configured depth itself.
	s.queue = make(chan *Job, cfg.QueueDepth+len(pending))
	for _, rec := range pending {
		s.replayJob(rec)
	}

	if startWorkers {
		s.startPool()
	}
	return s, nil
}

// replayJob re-admits one journaled submit after a restart; a job that
// still needs solving goes back on the queue and holds /readyz at 503
// until it is terminal.
func (s *Service) replayJob(rec submitRecord) {
	s.replayed.Add(1)
	if j, pending := s.readmit(rec); pending {
		j.replayed = true
		s.replayPending.Add(1)
		s.requeue(j)
	}
}

// idPrefix is what NodeID contributes to every job ID this instance
// mints ("n2" → "n2-j000017"); empty for single-node deployments.
func (s *Service) idPrefix() string {
	if s.cfg.NodeID == "" {
		return ""
	}
	return s.cfg.NodeID + "-"
}

// newJobID mints the next job ID, node-prefixed in cluster mode so IDs
// stay globally unique across peers (adoption moves jobs between nodes
// under their original IDs).
func (s *Service) newJobID() string {
	return fmt.Sprintf("%sj%06d", s.idPrefix(), s.nextID.Add(1))
}

// worker drains the queue. A panic escaping a job (a solver bug the
// per-job recover could not translate, or a service bug) retires this
// worker goroutine and starts a replacement, so the pool never shrinks
// because of a poisoned problem.
func (s *Service) worker() {
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.panicsRecovered.Add(1)
			// Replacement keeps the pool at full strength; it also keeps
			// draining a closed queue during shutdown. The wg.Add happens
			// before this goroutine's Done (defers run LIFO), so Close's
			// Wait cannot slip between them.
			s.wg.Add(1)
			go s.worker()
		}
	}()
	for job := range s.queue {
		s.runJob(job, nil)
	}
}

// beginShutdown marks the service draining and closes the queue so
// workers exit once it is empty. Idempotent.
func (s *Service) beginShutdown() {
	s.draining.Store(true)
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		// Closing the queue under the mutex excludes the (also mutex-held,
		// non-blocking) enqueue in Submit, so no send can hit a closed
		// channel.
		close(s.queue)
	}
	s.mu.Unlock()
}

// allJobs snapshots the registry, so callers can act on jobs without
// holding the service mutex across job locks or callbacks.
func (s *Service) allJobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	return jobs
}

// cancelAll cancels every registered job, queued or running.
func (s *Service) cancelAll() {
	for _, j := range s.allJobs() {
		j.Cancel()
	}
}

// Close shuts down immediately: queued jobs are canceled, running jobs
// are interrupted, the workers exit, and the journal is closed.
func (s *Service) Close() {
	s.beginShutdown()
	s.cancelAll()
	s.wg.Wait()
	if s.wal != nil {
		s.wal.Close()
	}
}

// Drain shuts down gracefully: the service stops accepting first
// (/readyz flips to 503, Submit returns ErrClosed), then lets queued
// and running jobs finish. If ctx expires before the queue drains, the
// stragglers are canceled Close-style. The context error, if any, is
// returned.
func (s *Service) Drain(ctx context.Context) error {
	s.beginShutdown()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelAll()
		<-done
	}
	if s.wal != nil {
		s.wal.Close()
	}
	return err
}

// Ready reports whether the service should receive new traffic, and if
// not, why: the cluster join handshake is still holding the worker
// pool, the journal replay has not finished re-proving its jobs, a dead
// peer's journal is mid-adoption, the queue is saturated, or shutdown
// has begun.
func (s *Service) Ready() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return false, "closed"
	}
	if s.held.Load() {
		return false, "cluster join in progress"
	}
	if s.replayPending.Load() > 0 {
		return false, "replaying journal"
	}
	if s.adopting.Load() > 0 {
		return false, "adopting peer journal"
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		return false, "queue saturated"
	}
	return true, ""
}

// crash is the test hook simulating a hard kill (SIGKILL-style): the
// journal file is closed first — so no in-flight job gets a terminal
// record, exactly as if the process died mid-solve — and only then are
// the workers torn down. State recovery is exercised by reopening a
// service on the same journal path.
func (s *Service) crash() {
	if s.wal != nil {
		s.wal.Close()
	}
	s.beginShutdown()
	s.cancelAll()
	s.wg.Wait()
}

// SubmitOptions shape one submission.
type SubmitOptions struct {
	// Mode selects the query (default ModeSolve).
	Mode Mode
	// Timeout is the per-job deadline; 0 uses the service default, and
	// values above Config.MaxTimeout are clamped to it.
	Timeout time.Duration
	// Parent, when non-nil, scopes the job to a caller context: a
	// synchronous HTTP request passes its request context here, so a
	// client disconnect cancels the job through the solvers' cooperative
	// interrupt. Async submissions leave it nil.
	Parent context.Context
	// Source is the re-parseable origin of the problem, journaled so a
	// crash can replay the job. The HTTP layer always sets it; left nil,
	// the service derives one via spec.WriteProblem when that provably
	// round-trips, and otherwise journals the job as non-replayable.
	Source *JobSource

	// whatif marks a job derived by WhatIf: solverFor routes it onto a warm
	// session from the registry when the problem family has one. Only
	// WhatIf sets it — everything else about the job (cache, journal,
	// queue, results) is identical to an ordinary submission, which is
	// what keeps what-if answers cache-compatible with /v1/synthesize.
	whatif bool
}

// Submit validates and keys the problem, answers from the cache
// when it can, and otherwise enqueues a job. The returned Job is
// terminal already on a cache hit. ErrQueueFull signals backpressure.
// The job holds a copy of prob with its flows in CompareFlows order,
// taken once, here: every later sorted view of its flows — the
// fingerprint, the decomposed solve, the encoder, the rendering — is
// then the flows themselves.
func (s *Service) Submit(prob *core.Problem, opts SubmitOptions) (*Job, error) {
	p := *prob
	p.Flows = usability.SortedFlows(p.Flows)
	if err := p.Validate(); err != nil {
		return nil, &BadRequestError{Msg: err.Error()}
	}
	k := spec.KeyOf(&p)
	return s.submit(scanned{key: k, fp: k.At(p.Thresholds), prob: &p}, opts)
}

// submit is every submission once its fingerprint is known: one cache
// lookup, and only a miss builds the problem, journals the job and
// enqueues it. A hit job keeps what it was handed — its source text, or
// the problem a caller submitted whole — and builds nothing.
func (s *Service) submit(in scanned, opts SubmitOptions) (*Job, error) {
	if opts.Mode == "" {
		opts.Mode = ModeSolve
	}
	if !opts.Mode.valid() {
		return nil, &BadRequestError{Msg: fmt.Sprintf("unknown mode %q", opts.Mode)}
	}
	j := newJob(s.newJobID(), opts.Mode, in.prob, in.fp)
	j.key, j.whatif, j.src = in.key, opts.whatif, opts.Source
	if !s.admit(j, opts.Timeout, opts.Parent) {
		s.submitted.Add(1)
		return j, nil
	}
	prob, err := in.problem()
	if err != nil {
		j.cancel()
		return nil, &BadRequestError{Msg: err.Error()}
	}
	j.prob = prob
	// A replayable source is needed for the journal and — in cluster
	// mode — for an offload, which sends a queued job to a peer as spec
	// text.
	if j.src == nil && (s.wal != nil || s.cfg.NodeID != "") {
		j.src = sourceFor(prob, in.fp)
	}
	if err := s.accept(j); err != nil {
		j.cancel()
		return nil, err
	}
	s.submitted.Add(1)
	return j, nil
}

// accept is Submit's enqueue policy, all of it under the mutex: refuse
// when closed or when the queue is at its configured depth, journal the
// submit record, and only then enqueue and register.
func (s *Service) accept(j *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	// The channel may be over-provisioned to absorb replayed jobs, so
	// backpressure is enforced against the configured depth, not cap().
	if len(s.queue) >= s.cfg.QueueDepth {
		return ErrQueueFull
	}
	// Journal before enqueueing: once Submit returns success the job is
	// durable, and a journal that cannot accept the record rejects the
	// submission instead of accepting work a crash would silently lose.
	rec := submitRecord{ID: j.ID, Mode: j.Mode, Fingerprint: j.Fingerprint, TimeoutMS: j.timeout.Milliseconds()}
	if j.src != nil {
		rec.JobSource = *j.src
	}
	if err := s.journalAppend(recSubmit, rec); err != nil {
		s.journalErrors.Add(1)
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	j.journaled = true
	// Cannot block: capacity was checked above, and closing the queue
	// takes the same mutex.
	s.queue <- j
	s.jobs[j.ID] = j
	return nil
}

// Job looks a job up by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Verify independently checks a design against a problem. With dj nil
// the problem is synthesized first (cache-aware, via Submit) and the
// synthesized design is verified — a self-check round trip. src, when
// non-nil, is journaled with the inner synthesis job so a crash
// mid-verify replays it.
func (s *Service) Verify(ctx context.Context, prob *core.Problem, dj *DesignJSON, timeout time.Duration, src *JobSource) (*core.VerifyResult, *DesignJSON, error) {
	if dj == nil {
		j, err := s.Submit(prob, SubmitOptions{Mode: ModeSolve, Timeout: timeout, Parent: ctx, Source: src})
		if err != nil {
			return nil, nil, err
		}
		res, jerr := j.Wait(ctx)
		if jerr != nil {
			return nil, nil, jerr
		}
		if res.Status != "sat" {
			return nil, nil, &BadRequestError{Msg: "problem is unsatisfiable; nothing to verify"}
		}
		dj = res.Design
	}
	d, err := designFromJSON(prob, dj)
	if err != nil {
		return nil, nil, err
	}
	vr, err := core.Verify(prob, d)
	if err != nil {
		return nil, nil, err
	}
	return vr, dj, nil
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	totals := s.totals
	s.mu.Unlock()
	ready, _ := s.Ready()
	st := Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.cfg.Workers,
		SolverWorkers: s.cfg.SolverWorkers,
		QueueDepth:    len(s.queue),
		// The channel is over-provisioned to absorb replayed jobs, so the
		// configured depth — the admission limit — is the capacity.
		QueueCapacity:    s.cfg.QueueDepth,
		JobsSubmitted:    s.submitted.Load(),
		JobsCompleted:    s.completed.Load(),
		JobsFailed:       s.failed.Load(),
		JobsCanceled:     s.canceled.Load(),
		JobsActive:       s.active.Load(),
		JobsDegraded:     s.degraded.Load(),
		JobsReplayed:     s.replayed.Load(),
		PanicsRecovered:  s.panicsRecovered.Load(),
		JournalErrors:    s.journalErrors.Load(),
		NodeID:           s.cfg.NodeID,
		PeerFillHits:     s.peerHits.Load(),
		PeerFillMisses:   s.peerMisses.Load(),
		JobsAdopted:      s.adopted.Load(),
		JobsDroppedStale: s.droppedStale.Load(),
		Ready:            ready,
		Cache:            s.cache.Stats(),
		RegionCache:      s.decomp.CacheStats(),
		Sessions:         s.sessions.Stats(),
		Solver:           totals,
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		st.Journal = &ws
	}
	return st
}
