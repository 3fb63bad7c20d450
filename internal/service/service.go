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
// With Config.JournalPath set the service is crash-recoverable: jobs
// are journaled to a write-ahead log at accept and at completion, and
// reopening against the same journal replays unfinished work (see
// journal.go). Solver panics are contained per job — the worker
// converts them into failed results and restarts — so one poisoned
// instance never takes the daemon down.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/decomp"
	"configsynth/internal/portfolio"
	"configsynth/internal/spec"
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
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.SolverWorkers <= 0 {
		c.SolverWorkers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 120 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.SessionEntries <= 0 {
		c.SessionEntries = 8
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 10 * time.Minute
	}
	if c.RegionWorkers <= 0 {
		c.RegionWorkers = 4
	}
	if c.RegionCacheEntries <= 0 {
		c.RegionCacheEntries = 512
	}
	return c
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
	// JobsStolenFromMe counts queued jobs handed to stealing peers;
	// JobsStolenCompleted counts the remote completions applied back.
	JobsStolenFromMe    int64 `json:"jobs_stolen_from_me,omitempty"`
	JobsStolenCompleted int64 `json:"jobs_stolen_completed,omitempty"`
	// JobsAdopted counts jobs re-enqueued from a dead peer's shipped
	// journal during cluster takeover.
	JobsAdopted int64 `json:"jobs_adopted,omitempty"`
	// JobsDroppedStale counts replayed jobs this node truncated because
	// the rejoin handshake found their IDs adopted by a peer.
	JobsDroppedStale int64 `json:"jobs_dropped_stale,omitempty"`

	Cache CacheStats `json:"cache"`
	// RegionCache reports the decomposed solver's region-level result
	// cache — hits here are sub-problem reuses inside and across
	// ModeDecomp jobs, counted separately from the whole-problem Cache
	// above.
	RegionCache decomp.CacheStats `json:"region_cache"`
	// Sessions reports the what-if session registry: warm solver state
	// reused across /v1/whatif deltas.
	Sessions SessionStats `json:"sessions"`
	// Journal reports write-ahead-log health when a journal is
	// configured.
	Journal *wal.Stats `json:"journal,omitempty"`
	// Solver aggregates core.ModelStats across every finished job.
	Solver core.ModelStats `json:"solver"`
}

// Service owns the queue, the worker pool, the job registry, and the
// result cache.
type Service struct {
	cfg      Config
	queue    chan *Job
	cache    *cache
	sessions *sessionRegistry
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
	stolenFromMe    atomic.Int64
	stolenDone      atomic.Int64
	adopted         atomic.Int64
	// replayPending tracks re-enqueued journal jobs that have not yet
	// reached a terminal state; /readyz reports 503 until it drains.
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
	if !s.held.CompareAndSwap(true, false) {
		return
	}
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
		cache:    newCache(cfg.CacheEntries),
		sessions: newSessionRegistry(cfg.SessionEntries, cfg.SessionTTL),
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
			s.cache.put(cacheKey(rr.Fingerprint, rr.Mode), rr.Result)
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
		for i := 0; i < cfg.Workers; i++ {
			s.wg.Add(1)
			go s.worker()
		}
	}
	return s, nil
}

// replayJob re-admits one journaled submit: instantly terminal on a
// (re-seeded) cache hit or an undecodable source, re-enqueued
// otherwise. Replayed jobs keep their original IDs so clients polling
// GET /v1/jobs/{id} across the restart still find them.
func (s *Service) replayJob(rec submitRecord) {
	s.replayed.Add(1)
	prob, derr := problemFromSource(rec)
	if derr != nil {
		// The job was accepted but cannot be reconstructed: surface an
		// explicit failure instead of silently dropping it.
		ctx, cancel := context.WithCancel(context.Background())
		j := newJob(rec.ID, rec.Mode, nil, rec.Fingerprint, ctx, cancel)
		s.register(j)
		j.setRunning()
		j.finish(nil, fmt.Errorf("replay: %w", derr))
		s.retire(j.ID)
		s.failed.Add(1)
		s.journalResult(j)
		return
	}
	if res, ok := s.cache.get(cacheKey(rec.Fingerprint, rec.Mode)); ok {
		hit := *res
		hit.Cached = true
		hit.Session = ""
		ctx, cancel := context.WithCancel(context.Background())
		j := newJob(rec.ID, rec.Mode, prob, rec.Fingerprint, ctx, cancel)
		s.register(j)
		j.setRunning()
		j.finish(&hit, nil)
		s.retire(j.ID)
		s.completed.Add(1)
		s.journalResult(j)
		return
	}
	timeout := time.Duration(rec.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	j := newJob(rec.ID, rec.Mode, prob, rec.Fingerprint, ctx, cancel)
	j.replayed = true
	j.src = sourceOf(rec)
	s.replayPending.Add(1)
	s.register(j)
	s.queue <- j
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
// stay globally unique across peers (adoption and stealing move jobs
// between nodes under their original IDs).
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
		s.runJob(job)
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

// cancelAll cancels every registered job, queued or running.
func (s *Service) cancelAll() {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
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

	// whatif marks a job derived by WhatIf: runJob routes it onto a warm
	// session from the registry when the problem family has one. Only
	// WhatIf sets it — everything else about the job (cache, journal,
	// queue, results) is identical to an ordinary submission, which is
	// what keeps what-if answers cache-compatible with /v1/synthesize.
	whatif bool
}

// Submit fingerprints the problem, answers from the cache when it can,
// and otherwise enqueues a job. The returned Job is terminal already on
// a cache hit. ErrQueueFull signals backpressure.
func (s *Service) Submit(prob *core.Problem, opts SubmitOptions) (*Job, error) {
	if opts.Mode == "" {
		opts.Mode = ModeSolve
	}
	if !opts.Mode.valid() {
		return nil, &BadRequestError{Msg: fmt.Sprintf("unknown mode %q", opts.Mode)}
	}
	if err := prob.Validate(); err != nil {
		return nil, &BadRequestError{Msg: err.Error()}
	}
	fp := spec.Fingerprint(prob)
	id := s.newJobID()

	if res, ok := s.cache.get(cacheKey(fp, opts.Mode)); ok {
		// Cache hits complete synchronously before Submit returns, so no
		// accepted-but-unfinished window exists for a crash to lose; they
		// are deliberately not journaled.
		hit := *res
		hit.Cached = true
		hit.Session = "" // describes how this response was produced: no session ran
		ctx, cancel := context.WithCancel(context.Background())
		j := newJob(id, opts.Mode, prob, fp, ctx, cancel)
		s.register(j)
		s.submitted.Add(1)
		j.setRunning()
		j.finish(&hit, nil)
		s.retire(j.ID)
		s.completed.Add(1)
		return j, nil
	}

	// A replayable source is needed for the journal and — in cluster
	// mode — for work stealing, where a queued job ships to a peer as
	// spec text.
	var src *JobSource
	if s.wal != nil || s.cfg.NodeID != "" {
		src = sourceFor(prob, fp, opts)
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	parent := opts.Parent
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithTimeout(parent, timeout)
	j := newJob(id, opts.Mode, prob, fp, ctx, cancel)
	j.whatif = opts.whatif
	j.src = src

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return nil, ErrClosed
	}
	// The channel may be over-provisioned to absorb replayed jobs, so
	// backpressure is enforced against the configured depth, not cap().
	if len(s.queue) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		cancel()
		return nil, ErrQueueFull
	}
	// Journal before enqueueing, still under the mutex: once Submit
	// returns success the job is durable, and a journal that cannot
	// accept the record rejects the submission instead of accepting work
	// a crash would silently lose.
	if err := s.journalAppend(recSubmit, submitRecord{
		ID:          j.ID,
		Mode:        j.Mode,
		Fingerprint: fp,
		Spec:        specOf(src),
		Example:     src != nil && src.Example,
		TimeoutMS:   timeout.Milliseconds(),
	}); err != nil {
		s.mu.Unlock()
		cancel()
		s.journalErrors.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrJournal, err)
	}
	// Cannot block: capacity was checked above and only Submit (which
	// holds the mutex) sends.
	s.queue <- j
	s.jobs[j.ID] = j
	s.mu.Unlock()
	s.submitted.Add(1)
	return j, nil
}

// specOf unwraps a source's spec text, tolerating nil.
func specOf(src *JobSource) string {
	if src == nil {
		return ""
	}
	return src.Spec
}

// Job looks a job up by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Service) register(j *Job) {
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.mu.Unlock()
}

// retire records a terminal job in the bounded retention ring so the
// registry cannot grow without bound under sustained traffic; the oldest
// finished job is forgotten once the ring is full.
func (s *Service) retire(id string) {
	s.mu.Lock()
	s.finished = append(s.finished, id)
	for len(s.finished) > finishedRetention {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
}

// solveJob runs the job's query under a recover barrier: a panic
// escaping the solver stack (poisoned instance, injected fault) is
// converted into a SolverPanicError carrying the stack and the problem
// fingerprint, so the job fails cleanly and the daemon survives.
func (s *Service) solveJob(j *Job, syn *portfolio.Solver, res *Result) (design *core.Design, qerr error) {
	defer func() {
		if r := recover(); r != nil {
			s.panicsRecovered.Add(1)
			design = nil
			qerr = &SolverPanicError{
				Value:       fmt.Sprint(r),
				Stack:       string(debug.Stack()),
				Fingerprint: j.Fingerprint,
			}
		}
	}()
	th := j.prob.Thresholds
	switch j.Mode {
	case ModeSolve:
		design, qerr = syn.SolveContext(j.ctx)
	case ModeMaxIsolation:
		res.Objective, design, qerr = syn.MaxIsolationContext(j.ctx, th.UsabilityTenths, th.CostBudget)
	case ModeMaxUsability:
		res.Objective, design, qerr = syn.MaxUsabilityContext(j.ctx, th.IsolationTenths, th.CostBudget)
	case ModeMinCost:
		var cost int64
		cost, design, qerr = syn.MinCostContext(j.ctx, th.IsolationTenths, th.UsabilityTenths)
		res.Objective = float64(cost)
	}
	return design, qerr
}

// solverFor builds (or checks out) the job's synthesizer. Ordinary jobs
// get a fresh racing portfolio — NewRacing even for one worker, so the
// engine path drives optimization descents centrally, which is what
// makes bound streaming work and results independent of K. What-if jobs
// consult the session registry first: a warm session for the problem
// family is retargeted at the job's thresholds and re-solves only the
// delta; on a miss a fresh session is built and, after the job, checked
// in for the family's next delta.
func (s *Service) solverFor(j *Job) (syn *portfolio.Solver, reused bool, err error) {
	if !j.whatif {
		syn, err = portfolio.NewRacing(j.prob, s.cfg.SolverWorkers)
		return syn, false, err
	}
	family := spec.FamilyFingerprint(j.prob)
	if sess, ok := s.sessions.checkout(family); ok {
		if rerr := sess.RetargetFamily(j.prob, family); rerr == nil {
			return sess, true, nil
		}
		// A session that cannot retarget within its own family is
		// defective; drop it and fall through to a fresh one.
	}
	syn, err = portfolio.NewSession(j.prob, s.cfg.SolverWorkers)
	return syn, false, err
}

// degradeToAnytime attempts the anytime fallback after a deadline or
// cancellation cut an optimization short: if the descent had already
// proven a feasible incumbent, that model (Exact=false) becomes the
// job's answer, marked degraded with the reason, instead of a bare
// timeout error.
func (s *Service) degradeToAnytime(j *Job, syn *portfolio.Solver, res *Result, qerr error) bool {
	switch j.Mode {
	case ModeMaxIsolation, ModeMaxUsability, ModeMinCost:
	default:
		return false
	}
	ad, ok := syn.AnytimeDesign()
	if !ok {
		return false
	}
	switch j.Mode {
	case ModeMaxIsolation:
		res.Objective = ad.Isolation
	case ModeMaxUsability:
		res.Objective = ad.Usability
	case ModeMinCost:
		res.Objective = float64(ad.Cost)
	}
	res.Status = "sat"
	res.Degraded = true
	if errors.Is(qerr, context.DeadlineExceeded) {
		res.DegradedReason = "deadline"
	} else {
		res.DegradedReason = "canceled"
	}
	s.fillDesign(res, j, ad)
	return true
}

// fillDesign renders a design into the result (wire form plus the
// paper's text format).
func (s *Service) fillDesign(res *Result, j *Job, design *core.Design) {
	res.Design = designJSON(j.prob, design)
	var sb strings.Builder
	if werr := spec.WriteDesign(&sb, j.prob, design); werr == nil {
		res.Text = sb.String()
	}
}

// runJob executes one job on a worker: build the portfolio synthesizer,
// run the query under the job context (and a panic barrier), publish
// bound events as the descent improves, degrade to the anytime
// incumbent when the deadline lands mid-optimization, store proven
// results in the cache, journal the terminal outcome, and fold the
// solver counters into the fleet totals.
func (s *Service) runJob(j *Job) {
	s.active.Add(1)
	defer s.active.Add(-1)
	if j.replayed {
		defer s.replayPending.Add(-1)
	}

	if err := j.ctx.Err(); err != nil {
		// finish is idempotent: a remote completion may have beaten the
		// cancellation here, in which case that path already journaled
		// and retired the job.
		if j.finish(nil, err) {
			s.canceled.Add(1)
			s.retire(j.ID)
			s.journalResult(j)
		}
		return
	}
	if !j.startRun() {
		// Stolen by a peer while queued: the delegation path (remote
		// completion, deadline watcher, or peer-death re-enqueue) owns
		// journaling and retirement now.
		return
	}
	defer s.retire(j.ID)
	defer s.journalResult(j)
	start := time.Now()

	if s.tryPeerFill(j) {
		return
	}

	if j.Mode == ModeDecomp {
		s.runDecompJob(j, start)
		return
	}

	syn, reused, err := s.solverFor(j)
	if err != nil {
		if errors.Is(err, core.ErrModelTooLarge) {
			// Encode-time arena overflow: a capacity verdict (HTTP 422),
			// not a malformed request.
			j.finish(nil, err)
		} else {
			j.finish(nil, &BadRequestError{Msg: err.Error()})
		}
		s.failed.Add(1)
		return
	}
	// Session solvers carry counters accumulated by earlier jobs;
	// snapshot them so this job folds only its own share into the fleet
	// totals below.
	var statsBase core.ModelStats
	var panicsBase uint64
	if reused {
		statsBase = syn.Stats()
		panicsBase = syn.PanicsRecovered()
	}
	syn.SetBoundObserver(func(kind core.ThresholdKind, v int64) {
		val := float64(v)
		if kind != core.ThresholdCost {
			val = float64(v) / 10 // tenths → 0–10 scale
		}
		j.publish(Event{Event: "bound", Kind: kind.String(), Value: val})
	})

	res := &Result{Mode: j.Mode, Fingerprint: j.Fingerprint, JobID: j.ID}
	design, qerr := s.solveJob(j, syn, res)
	// Worker panics the portfolio absorbed internally (survivors kept
	// the query alive) still count as contained.
	s.panicsRecovered.Add(int64(syn.PanicsRecovered() - panicsBase))

	s.mu.Lock()
	s.totals.Add(syn.Stats().Since(statsBase))
	s.mu.Unlock()

	// A warm session goes back into the registry for the family's next
	// delta before the job's terminal transition is visible: a client
	// that submits its next delta the moment this one finishes must find
	// the session. A session a panic escaped from is dropped, its state
	// being suspect.
	checkin := func() {}
	if syn.Session() {
		if reused {
			res.Session = "reused"
		} else {
			res.Session = "fresh"
		}
		var pe *SolverPanicError
		if poisoned := errors.As(qerr, &pe); !poisoned {
			checkin = func() {
				syn.ResetQueryState()
				s.sessions.checkin(syn.Family(), syn)
			}
		}
	}

	res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000

	var conflict *core.ThresholdConflictError
	switch {
	case qerr == nil:
		res.Status = "sat"
		if !design.Exact {
			// The solver itself truncated the descent (conflict budget):
			// the answer is a feasible incumbent, not a proven optimum.
			res.Degraded = true
			res.DegradedReason = "budget"
		}
		s.fillDesign(res, j, design)
		// Only exact answers are cached: an anytime design truncated by
		// this job's deadline must not be served to a patient client.
		if design.Exact {
			s.cache.put(cacheKey(j.Fingerprint, j.Mode), res)
		} else {
			s.degraded.Add(1)
		}
		s.completed.Add(1)
	case errors.As(qerr, &conflict):
		res.Status = "unsat"
		for _, k := range conflict.Core {
			res.Conflict = append(res.Conflict, k.String())
		}
		// Unsat is as deterministic as Sat; cache it too.
		s.cache.put(cacheKey(j.Fingerprint, j.Mode), res)
		s.completed.Add(1)
	case errors.Is(qerr, context.Canceled) || errors.Is(qerr, context.DeadlineExceeded):
		// degradeToAnytime reads the incumbent and re-extracts through the
		// session, so it runs before the check-in resets the query state.
		if s.degradeToAnytime(j, syn, res, qerr) {
			// Degraded results are never cached: a patient client must get
			// the exact answer, not this job's deadline-truncated one.
			s.degraded.Add(1)
			s.completed.Add(1)
		} else {
			s.canceled.Add(1)
			res = nil
		}
	default:
		s.failed.Add(1)
		res = nil
	}
	checkin()
	if res == nil {
		j.finish(nil, qerr)
	} else {
		j.finish(res, nil)
	}
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
		select {
		case <-j.Done():
		case <-ctx.Done():
			j.Cancel()
			<-j.Done()
		}
		res, jerr := j.Result()
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
		QueueCapacity:       s.cfg.QueueDepth,
		JobsSubmitted:       s.submitted.Load(),
		JobsCompleted:       s.completed.Load(),
		JobsFailed:          s.failed.Load(),
		JobsCanceled:        s.canceled.Load(),
		JobsActive:          s.active.Load(),
		JobsDegraded:        s.degraded.Load(),
		JobsReplayed:        s.replayed.Load(),
		PanicsRecovered:     s.panicsRecovered.Load(),
		JournalErrors:       s.journalErrors.Load(),
		NodeID:              s.cfg.NodeID,
		PeerFillHits:        s.peerHits.Load(),
		PeerFillMisses:      s.peerMisses.Load(),
		JobsStolenFromMe:    s.stolenFromMe.Load(),
		JobsStolenCompleted: s.stolenDone.Load(),
		JobsAdopted:         s.adopted.Load(),
		JobsDroppedStale:    s.droppedStale.Load(),
		Ready:               ready,
		Cache:               s.cache.stats(),
		RegionCache:         s.decomp.CacheStats(),
		Sessions:            s.sessions.stats(),
		Solver:              totals,
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		st.Journal = &ws
	}
	return st
}
