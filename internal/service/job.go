package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/decomp"
	"configsynth/internal/isolation"
	"configsynth/internal/spec"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// Mode selects the synthesis query a job runs.
type Mode string

// Supported query modes.
const (
	ModeSolve        Mode = "solve"
	ModeMaxIsolation Mode = "max-isolation"
	ModeMaxUsability Mode = "max-usability"
	ModeMinCost      Mode = "min-cost"
	// ModeDecomp partitions the topology at its backbone routers and
	// solves the regions independently (internal/decomp), stitching the
	// per-region min-cost designs into one global design checked against
	// the cost budget. Falls back to a monolithic solve when the problem
	// does not decompose.
	ModeDecomp Mode = "decomp"
)

// valid reports whether m names a known query.
func (m Mode) valid() bool {
	switch m {
	case ModeSolve, ModeMaxIsolation, ModeMaxUsability, ModeMinCost, ModeDecomp:
		return true
	}
	return false
}

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// FlowPatternJSON is one flow's chosen isolation pattern in a design.
type FlowPatternJSON struct {
	Src     topology.NodeID   `json:"src"`
	Dst     topology.NodeID   `json:"dst"`
	Svc     usability.Service `json:"svc"`
	Pattern int               `json:"pattern"`
	Name    string            `json:"name"`
}

// PlacementJSON is one link's deployed devices, keyed by the link's
// endpoints rather than its LinkID: endpoint pairs are canonical across
// input files that list their link sections in different orders, so a
// cached design stays meaningful for every request that maps to the
// same fingerprint.
type PlacementJSON struct {
	A       topology.NodeID `json:"a"`
	B       topology.NodeID `json:"b"`
	Devices []int           `json:"devices"`
	Names   []string        `json:"names"`
}

// DesignJSON is the wire form of a synthesized design.
type DesignJSON struct {
	Isolation  float64           `json:"isolation"`
	Usability  float64           `json:"usability"`
	Cost       int64             `json:"cost"`
	Exact      bool              `json:"exact"`
	Flows      []FlowPatternJSON `json:"flows"`
	Placements []PlacementJSON   `json:"placements"`
}

// Result is the outcome of a finished job, and the unit the cache
// stores.
type Result struct {
	Status      string `json:"status"` // "sat" or "unsat"
	Mode        Mode   `json:"mode"`
	Fingerprint string `json:"fingerprint"`
	// JobID names the job that served this response (cache hits carry
	// the serving job's id, not the producer's), so a synchronous
	// /v1/synthesize response can be used directly as a /v1/whatif
	// parent.
	JobID  string      `json:"job_id,omitempty"`
	Design *DesignJSON `json:"design,omitempty"`
	// Objective is the optimum of an optimization mode: isolation or
	// usability on the 0–10 scale, or a cost value.
	Objective float64 `json:"objective,omitempty"`
	// Conflict lists the threshold constraints in the unsat core.
	Conflict []string `json:"conflict,omitempty"`
	// Text is the design rendered in the paper's output-file format.
	Text string `json:"text,omitempty"`
	// Cached is true when the result was served from the canonical
	// result cache instead of the SAT core.
	Cached bool `json:"cached"`
	// Session reports how a what-if job got its solver: "reused" (a warm
	// session for the problem family re-solved the delta) or "fresh" (a
	// new session was built and kept for the next delta). Empty for
	// ordinary jobs and cache hits.
	Session string `json:"session,omitempty"`
	// Degraded marks an anytime answer: the design is feasible but not
	// proven optimal, because the deadline or the conflict budget cut the
	// descent short. Degraded results are never cached.
	Degraded bool `json:"degraded,omitempty"`
	// DegradedReason says what truncated the descent: "deadline",
	// "canceled", or "budget".
	DegradedReason string `json:"degraded_reason,omitempty"`
	// ElapsedMS is the solve wall-clock of the run that produced the
	// result (cache hits keep the original solve time).
	ElapsedMS float64 `json:"elapsed_ms"`
	// Decomp carries the region breakdown of a ModeDecomp run.
	Decomp *DecompJSON `json:"decomp,omitempty"`

	// hit is the cache entry a hit was answered from, whose rendered body
	// writeJobResult sends; nil on a solve and on every stored result.
	hit *cached
}

// DecompJSON is the wire form of a decomposed solve's region breakdown.
type DecompJSON struct {
	// Fallback is true when the problem did not decompose and was solved
	// monolithically; FallbackReason says why.
	Fallback       bool   `json:"fallback,omitempty"`
	FallbackReason string `json:"fallback_reason,omitempty"`
	// Conservative marks a decomposed UNSAT that the monolithic encoding
	// might still satisfy (region optima need not compose within budget).
	Conservative bool `json:"conservative,omitempty"`
	// ConflictRegion names the first unsat subproblem, or "stitch" when
	// the regions were satisfiable but their union broke the budget.
	ConflictRegion string `json:"conflict_region,omitempty"`
	// Repaired counts devices added post-stitch to restore route coverage
	// where subnet route rankings diverged from the global graph's.
	Repaired int `json:"repaired,omitempty"`
	// Hits and Misses count region-cache outcomes for this run.
	Hits    int                   `json:"region_hits"`
	Misses  int                   `json:"region_misses"`
	Regions []decomp.RegionReport `json:"regions,omitempty"`
}

// Event is one NDJSON line of a job's streamed progress.
type Event struct {
	Event string  `json:"event"` // queued | started | bound | done | failed | canceled
	JobID string  `json:"job_id"`
	TMS   float64 `json:"t_ms"` // milliseconds since submission
	// Kind and Value describe a "bound" event: the threshold kind and the
	// newly proven bound (tenths for isolation/usability, $K for cost).
	Kind   string  `json:"kind,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Result *Result `json:"result,omitempty"` // on done
	Error  string  `json:"error,omitempty"`  // on failed/canceled
}

// Job is one queued synthesis request.
type Job struct {
	ID          string
	Mode        Mode
	Fingerprint string

	// prob is the problem the job runs. A job the cache answered holds
	// one only if its submitter handed it one whole; a job submitted as
	// spec text keeps just src, and problem rebuilds from that.
	prob   *core.Problem
	ctx    context.Context
	cancel context.CancelFunc

	// timeout is the clamped deadline the job was admitted with, as the
	// submit record journals it.
	timeout time.Duration
	// journaled is set once the job's submit record is in the journal;
	// settle writes a terminal record exactly for those jobs. A Submit
	// cache hit is terminal before Submit returns, so no crash can lose
	// it and neither record is written.
	journaled bool
	// replayed marks a job re-enqueued from the journal on startup; the
	// service tracks these for readiness gating.
	replayed bool
	// whatif marks a job derived via WhatIf: solverFor routes it onto a
	// warm session for its problem family when the registry has one.
	// Journal replay never sets it — a restarted service has no warm
	// sessions, so replayed what-if jobs re-solve from scratch.
	whatif bool
	// key is the job's problem's key (spec.KeyOf), made in the one
	// canonical pass of its admission: the job's Fingerprint is the key
	// at the job's thresholds, its family — what a what-if session is
	// keyed on — the key at zero thresholds, and a decomposed solve
	// derives its stitch key from it.
	key spec.Key
	// src is the replayable origin retained for the journal and for an
	// offload, which sends the job to a peer as spec text. nil for
	// programmatic submissions that do not round-trip.
	src *JobSource

	created time.Time

	mu     sync.Mutex
	state  JobState
	events []Event
	subs   []chan Event
	result *Result
	err    error
	done   chan struct{}
}

// newJob builds a queued job with nothing to cancel yet: admit gives a
// job that needs solving its deadline context, and one answered at
// admission never gets to run.
func newJob(id string, mode Mode, prob *core.Problem, fp string) *Job {
	j := &Job{
		ID:          id,
		Mode:        mode,
		Fingerprint: fp,
		prob:        prob,
		ctx:         context.Background(),
		cancel:      func() {},
		created:     time.Now(),
		state:       StateQueued,
		done:        make(chan struct{}),
	}
	j.publish(Event{Event: "queued"})
	return j
}

// problem is the job's problem: the one it ran, or — for a job answered
// from the cache that kept only its source — one rebuilt from the source
// for the caller, and not kept.
func (j *Job) problem() (*core.Problem, error) {
	if j.prob != nil {
		return j.prob, nil
	}
	return j.src.problem(j.Fingerprint)
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the job outcome once terminal: the result on success,
// or the error that failed/canceled it.
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Cancel asks the job to stop; a queued job fails straight to canceled,
// a running one is interrupted through its context.
func (j *Job) Cancel() { j.cancel() }

// Wait blocks until the job is terminal and returns its outcome. A
// waiter whose ctx ends first cancels the job (it was the job's
// audience) and gets the outcome that cancellation produced.
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		j.cancel()
		<-j.done
	}
	return j.Result()
}

// publish appends an event to the replay log and fans it out. Slow
// subscribers drop intermediate events (their channels are buffered);
// terminal state is always observable via Done/Result.
func (j *Job) publish(e Event) {
	e.JobID = j.ID
	e.TMS = float64(time.Since(j.created).Microseconds()) / 1000
	j.mu.Lock()
	j.events = append(j.events, e)
	subs := append([]chan Event(nil), j.subs...)
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- e:
		default:
		}
	}
}

// Subscribe returns a channel replaying every event published so far and
// following new ones. The channel is closed when the job is terminal and
// all events have been delivered.
func (j *Job) Subscribe() <-chan Event {
	j.mu.Lock()
	past := append([]Event(nil), j.events...)
	terminal := j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
	ch := make(chan Event, 64+len(past))
	for _, e := range past {
		ch <- e
	}
	if terminal {
		close(ch)
	} else {
		j.subs = append(j.subs, ch)
	}
	j.mu.Unlock()
	return ch
}

// startRun atomically claims the job for one runJob — a worker's or an
// offload's: false when another claimed it or it is terminal already.
func (j *Job) startRun() bool {
	j.mu.Lock()
	if j.terminalLocked() || j.state == StateRunning {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.mu.Unlock()
	j.publish(Event{Event: "started"})
	return true
}

// terminalLocked reports terminal state; callers hold j.mu.
func (j *Job) terminalLocked() bool {
	return j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
}

// finish transitions to a terminal state and wakes every waiter. It is
// idempotent: only the first transition wins (see settle), and the
// return value reports whether this call was it. record runs once the
// transition is won, under the job mutex, so nothing that can observe
// the terminal state (State, Done, Subscribe) runs before it has
// returned. Service.settle is the only caller.
func (j *Job) finish(res *Result, err error, record func(JobState)) bool {
	var e Event
	j.mu.Lock()
	if j.terminalLocked() {
		j.mu.Unlock()
		return false
	}
	switch {
	case err == nil:
		j.state = StateDone
		// Stamp the serving job's id so every successful response names a
		// valid /v1/whatif parent; cache-hit copies overwrite the
		// producer's id with their own job's. A producer's result already
		// carries it and may be in the cache by now, where concurrent
		// submissions copy it: it must not be written again.
		if res.JobID != j.ID {
			res.JobID = j.ID
		}
		j.result = res
		e = Event{Event: "done", Result: res}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCanceled
		j.err = err
		e = Event{Event: "canceled", Error: err.Error()}
	default:
		j.state = StateFailed
		j.err = err
		e = Event{Event: "failed", Error: err.Error()}
	}
	record(j.state)
	j.mu.Unlock()
	j.publish(e)
	j.mu.Lock()
	subs := j.subs
	j.subs = nil
	j.mu.Unlock()
	for _, ch := range subs {
		close(ch)
	}
	close(j.done)
	j.cancel()
	return true
}

// render is d's two wire forms against p, the JSON design and the
// paper's text (spec.WriteDesign, left empty if that fails), in an
// otherwise empty Result.
func render(p *core.Problem, d *core.Design) *Result {
	var sb strings.Builder
	if spec.WriteDesign(&sb, p, d) != nil {
		sb.Reset()
	}
	return &Result{Design: designJSON(p, d), Text: sb.String()}
}

// designJSON converts a core design to its wire form: flows in (src,
// dst, svc) order, placements keyed by link endpoints in (a, b) order.
// A design covers exactly its problem's flows, so they are read from
// the problem in that order — a spec-grammar problem lists them so,
// anything else has a copy sorted — and looked up in the design, never
// walked out of its map. A job's problem numbers its links in (a, b)
// order (scanned.problem), so placements are read in LinkID order.
func designJSON(p *core.Problem, d *core.Design) *DesignJSON {
	out := &DesignJSON{
		Isolation: d.Isolation,
		Usability: d.Usability,
		Cost:      d.Cost,
		Exact:     d.Exact,
	}
	flows := usability.SortedFlows(p.Flows)
	if len(d.FlowPatterns) > 0 {
		out.Flows = make([]FlowPatternJSON, 0, len(d.FlowPatterns))
	}
	for _, f := range flows {
		pid, ok := d.FlowPatterns[f]
		if !ok {
			continue
		}
		name := "no isolation"
		if pid != isolation.PatternNone {
			if pat, ok := p.Catalog.Pattern(pid); ok {
				name = pat.Name
			}
		}
		out.Flows = append(out.Flows, FlowPatternJSON{
			Src: f.Src, Dst: f.Dst, Svc: f.Svc, Pattern: int(pid), Name: name,
		})
	}
	for link := range topology.LinkID(p.Network.NumLinks()) {
		devs, ok := d.Placements[link]
		if !ok {
			continue
		}
		l, _ := p.Network.Link(link)
		pl := PlacementJSON{A: min(l.A, l.B), B: max(l.A, l.B)}
		if len(devs) > 0 {
			pl.Devices, pl.Names = make([]int, len(devs)), make([]string, len(devs))
		}
		for i, dev := range devs {
			pl.Devices[i], pl.Names[i] = int(dev), "?"
			if dd, ok := p.Catalog.Device(dev); ok {
				pl.Names[i] = dd.Name
			}
		}
		out.Placements = append(out.Placements, pl)
	}
	return out
}

// designFromJSON rebuilds a core design from its wire form against a
// problem (the verify path accepts hand-written designs this way).
func designFromJSON(p *core.Problem, dj *DesignJSON) (*core.Design, error) {
	d := &core.Design{
		FlowPatterns:  make(map[usability.Flow]isolation.PatternID, len(dj.Flows)),
		Placements:    make(map[topology.LinkID][]isolation.DeviceID, len(dj.Placements)),
		HostIsolation: make(map[topology.NodeID]float64),
		Isolation:     dj.Isolation,
		Usability:     dj.Usability,
		Cost:          dj.Cost,
		Exact:         dj.Exact,
	}
	for _, f := range dj.Flows {
		d.FlowPatterns[usability.Flow{Src: f.Src, Dst: f.Dst, Svc: f.Svc}] = isolation.PatternID(f.Pattern)
	}
	for _, pl := range dj.Placements {
		link, ok := p.Network.LinkBetween(pl.A, pl.B)
		if !ok {
			return nil, &BadRequestError{Msg: "design places devices on a non-existent link"}
		}
		for _, dev := range pl.Devices {
			d.Placements[link] = append(d.Placements[link], isolation.DeviceID(dev))
		}
	}
	return d, nil
}
