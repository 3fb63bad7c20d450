package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/netgen"
	"configsynth/internal/spec"
)

// maxBodyBytes bounds request bodies (problem specs are small).
const maxBodyBytes = 4 << 20

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/synthesize", s.handleSynthesize)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/whatif", s.handleWhatIf)
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	// /healthz is liveness: the process is up and serving. /readyz is
	// readiness: 503 while the journal replay is still draining, the
	// queue is saturated, or shutdown drain has begun — load balancers
	// should stop routing, but the process must not be killed.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ready, reason := s.Ready()
		status := http.StatusOK
		if !ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]any{"ready": ready, "reason": reason})
	})
	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = encodeJSON(w, v)
}

// encodeJSON is the one rendering of a response body.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// readBody reads a request body of at most limit bytes. A longer one is
// refused (413) — unread, when it declares its length — never cut short:
// a spec truncated at the limit can still parse, as a different problem.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var tooLarge *http.MaxBytesError
	if err != nil && !errors.As(err, &tooLarge) {
		err = &BadRequestError{Msg: fmt.Sprintf("reading body: %v", err)}
	}
	return body, err
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// errorStatus is the one mapping from an error — a refused submission
// or a job's terminal error alike — to its HTTP status and the message
// the client reads.
func errorStatus(err error) (int, string) {
	var bad *BadRequestError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "job queue is full; retry shortly"
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, "service is shutting down"
	case errors.Is(err, ErrJournal):
		return http.StatusServiceUnavailable, "job journal unavailable; retry shortly"
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline exceeded"
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout, "canceled"
	case errors.Is(err, core.ErrModelTooLarge):
		// A stated capacity limit, not a server fault: the monolithic
		// encode exceeds the clause arena's 31-bit cref space. 422 tells
		// the client the request was understood but cannot be represented;
		// mode=decomp is the designed way to solve instances this large.
		return http.StatusUnprocessableEntity,
			err.Error() + " (try mode=decomp: decomposed regions stay below the arena limit)"
	case errors.As(err, &bad):
		return http.StatusBadRequest, bad.Msg
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit)
	}
	return http.StatusInternalServerError, err.Error()
}

// submitError renders a request that produced no job result. A full
// queue is backpressure, and a journal refusal happens before enqueue
// (the journal may have repaired itself by the next attempt): both carry
// Retry-After so well-behaved clients pace themselves.
func submitError(w http.ResponseWriter, err error) {
	status, msg := errorStatus(err)
	if status == http.StatusTooManyRequests || errors.Is(err, ErrJournal) {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, status, "%s", msg)
}

// parseProblem reads the request problem: the body in the paper's
// Table IV spec format, or the built-in paper example with ?example=1
// (and an empty body). The returned JobSource is the replayable origin
// the journal records — HTTP submissions always have one. The body comes
// back too, for a router that sends the request elsewhere.
func parseProblem(w http.ResponseWriter, r *http.Request) (*core.Problem, []byte, *JobSource, error) {
	body, err := readBody(w, r, maxBodyBytes)
	if err != nil {
		return nil, nil, nil, err
	}
	text := string(body)
	blank := strings.TrimSpace(text) == ""
	if r.URL.Query().Get("example") != "" {
		if !blank {
			return nil, nil, nil, &BadRequestError{Msg: "example=1 takes no body"}
		}
		return netgen.PaperExample(), body, &JobSource{Example: true}, nil
	}
	if blank {
		return nil, nil, nil, &BadRequestError{Msg: "empty body; POST a problem in the Table IV spec format (or use ?example=1)"}
	}
	p, err := spec.Parse(strings.NewReader(text))
	if err != nil {
		return nil, nil, nil, &BadRequestError{Msg: err.Error()}
	}
	return p, body, &JobSource{Spec: text}, nil
}

// parseTimeout reads ?timeout=30s style deadlines.
func parseTimeout(q url.Values) (time.Duration, error) {
	raw := q.Get("timeout")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		return 0, &BadRequestError{Msg: fmt.Sprintf("bad timeout %q (want a positive Go duration, e.g. 30s)", raw)}
	}
	return d, nil
}

// handleSynthesize is POST /v1/synthesize:
//
//	?mode=solve|max-isolation|max-usability|min-cost   query (default solve)
//	?timeout=30s     per-job deadline (covers queue wait + solving)
//	?async=1         return 202 + job id immediately; poll /v1/jobs/{id}
//	?stream=1        NDJSON event stream: queued, started, bound…, done
//	?example=1       use the built-in paper example problem
//
// This is the one place a synthesis request is read, limited, parsed
// and fingerprinted; a router the cluster installs (SetRouter) then
// decides whether it runs here.
func (s *Service) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	prob, body, src, err := parseProblem(w, r)
	if err != nil {
		submitError(w, err)
		return
	}
	fp := spec.Fingerprint(prob)
	s.peerMu.Lock()
	route := s.router
	s.peerMu.Unlock()
	if route != nil && route(w, r, body, fp) {
		return
	}
	opts, err := submitOptions(r)
	if err != nil {
		submitError(w, err)
		return
	}
	opts.Source, opts.fingerprint = src, fp
	job, err := s.Submit(prob, opts)
	if err != nil {
		submitError(w, err)
		return
	}
	reply(w, r, job)
}

// submitOptions reads what /v1/synthesize, /v1/whatif and /v1/batch
// share: ?mode, ?timeout, and — unless ?async — the request context as
// the job's parent, so synchronous and streamed jobs die with their
// client: a disconnect cancels the solvers through the job context.
func submitOptions(r *http.Request) (SubmitOptions, error) {
	q := r.URL.Query()
	timeout, err := parseTimeout(q)
	if err != nil {
		return SubmitOptions{}, err
	}
	opts := SubmitOptions{Mode: Mode(q.Get("mode")), Timeout: timeout}
	if q.Get("async") == "" {
		opts.Parent = r.Context()
	}
	return opts, nil
}

// reply answers a single-job request in the form the client asked for:
// 202 and the job's address (?async), its NDJSON event stream
// (?stream), or the result once the job is terminal.
func reply(w http.ResponseWriter, r *http.Request, job *Job) {
	q := r.URL.Query()
	switch {
	case q.Get("async") != "":
		writeJSON(w, http.StatusAccepted, map[string]string{
			"job_id": job.ID,
			"status": string(job.State()),
			"href":   "/v1/jobs/" + job.ID,
		})
	case q.Get("stream") != "":
		streamEvents(w, job)
	default:
		job.Wait(r.Context())
		writeJobResult(w, job)
	}
}

// writeJobResult renders a terminal job as a JSON response. A solve is
// marshalled; a hit is its cache entry's bytes with this job's id spliced
// in: what writeJSON would send, with no encode and a known length.
func writeJobResult(w http.ResponseWriter, job *Job) {
	res, err := job.Result()
	if err != nil {
		status, msg := errorStatus(err)
		writeError(w, status, "job %s: %s", job.ID, msg)
		return
	}
	h := w.Header()
	if res.hit == nil {
		h.Set("X-Cache", "miss")
		writeJSON(w, http.StatusOK, res)
		return
	}
	head, tail := res.hit.body()
	id, _ := json.Marshal(&res.JobID) // cannot fail; by pointer, so unboxed
	h.Set("X-Cache", "hit")
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(head)+len(id)+len(tail)))
	w.WriteHeader(http.StatusOK)
	for _, part := range [][]byte{head, id, tail} {
		_, _ = w.Write(part) // a failed write is a client that went away
	}
}

// streamEvents writes the job's event log as NDJSON, flushing per event,
// until the job is terminal.
func streamEvents(w http.ResponseWriter, job *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for e := range job.Subscribe() {
		if enc.Encode(e) != nil {
			return // client went away; the request context cancels the job
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleJob is GET /v1/jobs/{id} (status snapshot) and
// GET /v1/jobs/{id}?stream=1 (NDJSON events, replayed from the start).
func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if r.URL.Query().Get("stream") != "" {
		streamEvents(w, job)
		return
	}
	state := job.State()
	if state == StateDone || state == StateFailed || state == StateCanceled {
		writeJobResult(w, job)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"job_id": job.ID,
		"status": string(state),
	})
}

// whatIfRequest is the POST /v1/whatif body: a parent job ID and the
// delta to apply to its problem.
type whatIfRequest struct {
	Parent string      `json:"parent"`
	Delta  WhatIfDelta `json:"delta"`
}

// handleWhatIf is POST /v1/whatif: body {"parent": "<job id>",
// "delta": {"isolation_tenths": 60, "cost_budget": 400, "add_links":
// [{"a":1,"b":7}], ...}}. The parent's problem is re-solved with the
// delta applied, reusing the parent family's warm solver session when
// one is registered. Query parameters mirror /v1/synthesize:
//
//	?mode=...        query mode (default: the parent job's mode)
//	?timeout=30s     per-job deadline
//	?async=1         return 202 + job id immediately
//	?stream=1        NDJSON event stream
func (s *Service) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, maxBodyBytes)
	if err != nil {
		submitError(w, err)
		return
	}
	var req whatIfRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if strings.TrimSpace(req.Parent) == "" {
		writeError(w, http.StatusBadRequest, `missing "parent" (job id of the baseline solve)`)
		return
	}
	opts, err := submitOptions(r)
	if err != nil {
		submitError(w, err)
		return
	}
	job, err := s.WhatIf(req.Parent, req.Delta, opts)
	if err != nil {
		submitError(w, err)
		return
	}
	reply(w, r, job)
}

// verifyRequest is the POST /v1/verify body.
type verifyRequest struct {
	// Problem is the spec-format problem text.
	Problem string `json:"problem"`
	// Design optionally names the design to check; omitted, the problem
	// is synthesized (cache-aware) and the result verified.
	Design *DesignJSON `json:"design,omitempty"`
}

// verifyResponse is the POST /v1/verify reply.
type verifyResponse struct {
	OK         bool        `json:"ok"`
	Violations []string    `json:"violations,omitempty"`
	Isolation  float64     `json:"isolation"`
	Usability  float64     `json:"usability"`
	Cost       int64       `json:"cost"`
	Design     *DesignJSON `json:"design,omitempty"`
}

// handleVerify is POST /v1/verify: body {"problem": "<spec text>",
// "design": {...}?}; with example=1 the paper example problem is used
// and the body may omit "problem".
func (s *Service) handleVerify(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, maxBodyBytes)
	if err != nil {
		submitError(w, err)
		return
	}
	var req verifyRequest
	if len(strings.TrimSpace(string(body))) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		}
	}
	var (
		prob *core.Problem
		src  *JobSource
	)
	if r.URL.Query().Get("example") != "" {
		prob = netgen.PaperExample()
		src = &JobSource{Example: true}
	} else {
		if strings.TrimSpace(req.Problem) == "" {
			writeError(w, http.StatusBadRequest, `missing "problem" (spec text)`)
			return
		}
		prob, err = spec.Parse(strings.NewReader(req.Problem))
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		src = &JobSource{Spec: req.Problem}
	}
	timeout, err := parseTimeout(r.URL.Query())
	if err != nil {
		submitError(w, err)
		return
	}
	vr, dj, err := s.Verify(r.Context(), prob, req.Design, timeout, src)
	if err != nil {
		submitError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, verifyResponse{
		OK:         vr.OK(),
		Violations: vr.Violations,
		Isolation:  vr.Isolation,
		Usability:  vr.Usability,
		Cost:       vr.Cost,
		Design:     dj,
	})
}
