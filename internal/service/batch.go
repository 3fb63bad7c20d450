package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// maxBatchBodyBytes bounds POST /v1/batch bodies: a batch carries up to
// a few hundred spec-format variants, each far larger than a single
// request's budget.
const maxBatchBodyBytes = 64 << 20

// BatchVariant is one named problem variant in a batch submission.
type BatchVariant struct {
	Name string `json:"name"`
	// Spec is the problem in the paper's Table IV spec format.
	Spec string `json:"spec"`
}

// BatchItem pairs a variant with the job admitted for it.
type BatchItem struct {
	Name string
	Job  *Job
}

// SubmitBatch admits every variant as its own job, in order. All specs
// are scanned up front — one malformed variant rejects the whole batch
// before any work is enqueued — and each admission goes through the
// ordinary submission path: identical variants collapse onto the
// whole-problem cache, distinct ones are journaled before enqueue so a
// crash mid-batch replays exactly the accepted, unfinished jobs and
// nothing else. A full queue is waited out (batches are bursts above
// the configured depth by design) until ctx expires.
//
// The default mode is ModeDecomp: variants of one base topology share
// region fingerprints, so the decomposing solver's region cache turns
// the sweep's common structure into cache hits and each variant pays
// only for the regions its edits dirty.
func (s *Service) SubmitBatch(ctx context.Context, variants []BatchVariant, opts SubmitOptions) ([]BatchItem, error) {
	if len(variants) == 0 {
		return nil, &BadRequestError{Msg: "empty batch: name at least one variant"}
	}
	if opts.Mode == "" {
		opts.Mode = ModeDecomp
	}
	if !opts.Mode.valid() {
		return nil, &BadRequestError{Msg: fmt.Sprintf("unknown mode %q", opts.Mode)}
	}

	type parsed struct {
		name string
		in   scanned
		src  *JobSource
	}
	seen := make(map[string]bool, len(variants))
	items := make([]parsed, len(variants))
	for i, v := range variants {
		name := v.Name
		if name == "" {
			name = fmt.Sprintf("v%d", i)
		}
		if seen[name] {
			return nil, &BadRequestError{Msg: fmt.Sprintf("duplicate variant name %q", name)}
		}
		seen[name] = true
		if strings.TrimSpace(v.Spec) == "" {
			return nil, &BadRequestError{Msg: fmt.Sprintf("variant %q: empty spec", name)}
		}
		src := &JobSource{Spec: v.Spec}
		in, err := src.scan()
		if err != nil {
			return nil, &BadRequestError{Msg: fmt.Sprintf("variant %q: %v", name, err)}
		}
		items[i] = parsed{name: name, in: in, src: src}
	}

	out := make([]BatchItem, 0, len(items))
	for _, it := range items {
		o := opts
		o.Source = it.src
		for {
			job, err := s.submit(it.in, o)
			if err == nil {
				out = append(out, BatchItem{Name: it.name, Job: job})
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				return out, fmt.Errorf("variant %q: %w", it.name, err)
			}
			select {
			case <-ctx.Done():
				return out, fmt.Errorf("variant %q: %w", it.name, ctx.Err())
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
	return out, nil
}

// batchRequest is the POST /v1/batch body.
type batchRequest struct {
	// Mode applies to every variant (default "decomp").
	Mode     Mode           `json:"mode,omitempty"`
	Variants []BatchVariant `json:"variants"`
}

// batchLine is one NDJSON line of a streamed batch response.
type batchLine struct {
	Event   string  `json:"event"` // "result" per variant, then one "batch_done"
	Variant string  `json:"variant,omitempty"`
	JobID   string  `json:"job_id,omitempty"`
	Result  *Result `json:"result,omitempty"`
	Error   string  `json:"error,omitempty"`
	// batch_done summary fields.
	Variants     int     `json:"variants,omitempty"`
	Sat          int     `json:"sat,omitempty"`
	Unsat        int     `json:"unsat,omitempty"`
	Failed       int     `json:"failed,omitempty"`
	CacheHits    int     `json:"cache_hits,omitempty"`
	RegionHits   int     `json:"region_hits,omitempty"`
	RegionMisses int     `json:"region_misses,omitempty"`
	ElapsedMS    float64 `json:"elapsed_ms,omitempty"`
}

// handleBatch is POST /v1/batch: body {"mode": "decomp"?, "variants":
// [{"name": "base", "spec": "<spec text>"}, ...]}. Every variant
// becomes its own (journaled, crash-replayable) job. Query parameters:
//
//	?mode=...        query mode for every variant (default decomp)
//	?timeout=30s     per-variant deadline
//	?async=1         return 202 + all job ids; poll /v1/jobs/{id}
//
// Without async the response is an NDJSON stream of per-variant results
// in completion order, closed by a batch_done summary line that totals
// verdicts and region-cache traffic.
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, maxBatchBodyBytes)
	if err != nil {
		submitError(w, err)
		return
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	// Streamed batches die with their client; async ones are owned by
	// the journal and survive the request (and the process).
	opts, err := submitOptions(r)
	if err != nil {
		submitError(w, err)
		return
	}
	if opts.Mode == "" {
		opts.Mode = req.Mode
	}
	async := r.URL.Query().Get("async") != ""
	start := time.Now()
	items, err := s.SubmitBatch(r.Context(), req.Variants, opts)
	if err != nil {
		submitError(w, err)
		return
	}

	if async {
		jobs := make([]map[string]string, 0, len(items))
		for _, it := range items {
			jobs = append(jobs, map[string]string{
				"variant": it.Name,
				"job_id":  it.Job.ID,
				"href":    "/v1/jobs/" + it.Job.ID,
			})
		}
		WriteJSON(w, http.StatusAccepted, map[string]any{"jobs": jobs})
		return
	}

	send := ndjson(w)

	// Fan results in as jobs finish, preserving completion order.
	done := make(chan int, len(items))
	for i := range items {
		go func(i int) {
			<-items[i].Job.Done()
			done <- i
		}(i)
	}
	summary := batchLine{Event: "batch_done", Variants: len(items)}
	for range items {
		var i int
		select {
		case i = <-done:
		case <-r.Context().Done():
			return // client went away; request context cancels the jobs
		}
		it := items[i]
		line := batchLine{Event: "result", Variant: it.Name, JobID: it.Job.ID}
		res, jerr := it.Job.Result()
		switch {
		case jerr != nil:
			line.Error = jerr.Error()
			summary.Failed++
		case res.Status == "sat":
			line.Result = res
			summary.Sat++
		default:
			line.Result = res
			summary.Unsat++
		}
		if res != nil {
			if res.Cached {
				summary.CacheHits++
			} else if res.Decomp != nil {
				summary.RegionHits += res.Decomp.Hits
				summary.RegionMisses += res.Decomp.Misses
			}
		}
		if !send(line) {
			return
		}
	}
	summary.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	send(summary)
}
