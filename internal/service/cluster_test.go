package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/spec"
	"configsynth/internal/wal"
)

// Tests for the cluster-facing service surface: delegation (stealing),
// remote completion, and journal adoption. They run against a plain
// single service — the cluster layer is just an HTTP shell around these
// calls, so their invariants are pinned here where timing is fully
// controlled.

// pinWorker occupies the (single) worker with a job only cancellation
// ends, so subsequently submitted jobs stay queued.
func pinWorker(t *testing.T, s *Service) *Job {
	t.Helper()
	pin, err := s.Submit(hardProblem(t), SubmitOptions{Mode: ModeMaxIsolation, Timeout: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		pin.Cancel()
		<-pin.Done()
	})
	deadline := time.Now().Add(10 * time.Second)
	for pin.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("pin job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return pin
}

// queuedVariant submits the i-th cost-budget variant of the small spec
// with a replayable source, as the HTTP layer would.
func queuedVariant(t *testing.T, s *Service, i int) *Job {
	t.Helper()
	p := smallProblem(t)
	p.Thresholds.CostBudget += int64(i)
	var sb strings.Builder
	if err := spec.WriteProblem(&sb, p); err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(p, SubmitOptions{
		Timeout: 2 * time.Minute,
		Source:  &JobSource{Spec: sb.String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestStealJobsDelegatesQueuedJobsOnce(t *testing.T) {
	s := New(Config{Workers: 1, NodeID: "n1"})
	defer s.Close()
	pinWorker(t, s)

	j1 := queuedVariant(t, s, 1)
	j2 := queuedVariant(t, s, 2)

	stolen := s.StealJobs("n2", 5)
	if len(stolen) != 2 {
		t.Fatalf("stole %d jobs, want 2", len(stolen))
	}
	// Oldest first, each with the replayable source a thief needs.
	if stolen[0].ID != j1.ID || stolen[1].ID != j2.ID {
		t.Fatalf("steal order %s,%s, want %s,%s", stolen[0].ID, stolen[1].ID, j1.ID, j2.ID)
	}
	for _, sj := range stolen {
		if sj.Spec == "" || sj.Fingerprint == "" || sj.RemainingMS <= 0 {
			t.Fatalf("stolen job missing source/fingerprint/deadline: %+v", sj)
		}
	}
	// A delegated job cannot be stolen again by anyone.
	if again := s.StealJobs("n3", 5); len(again) != 0 {
		t.Fatalf("double-stole %d jobs", len(again))
	}

	// The thief answers j1; the first completion wins, repeats are
	// rejected — this is what makes the watcher/poster race safe.
	if !s.CompleteRemote(j1.ID, &Result{Status: "unsat"}, "") {
		t.Fatal("first remote completion rejected")
	}
	if s.CompleteRemote(j1.ID, &Result{Status: "unsat"}, "") {
		t.Fatal("second remote completion accepted")
	}
	res1 := wait(t, j1)
	if res1.Status != "unsat" || res1.Cached {
		t.Fatalf("remote result mangled: %+v", res1)
	}

	// A remote failure terminates the job too.
	if !s.CompleteRemote(j2.ID, nil, "peer ran out of memory") {
		t.Fatal("remote failure rejected")
	}
	<-j2.Done()
	if _, jerr := j2.Result(); jerr == nil || !strings.Contains(jerr.Error(), "peer ran out of memory") {
		t.Fatalf("remote failure error = %v", jerr)
	}

	st := s.Stats()
	if st.JobsStolenFromMe != 2 || st.JobsStolenCompleted != 2 {
		t.Fatalf("stolen=%d completed=%d, want 2/2", st.JobsStolenFromMe, st.JobsStolenCompleted)
	}
	// Unknown IDs are refused outright.
	if s.CompleteRemote("n1-j999999", &Result{Status: "unsat"}, "") {
		t.Fatal("completion of unknown job accepted")
	}
}

func TestReenqueueStolenReturnsJobsToLocalPool(t *testing.T) {
	s := New(Config{Workers: 1, NodeID: "n1"})
	defer s.Close()
	pin := pinWorker(t, s)

	j := queuedVariant(t, s, 1)
	if got := len(s.StealJobs("n2", 5)); got != 1 {
		t.Fatalf("stole %d, want 1", got)
	}
	// The thief died: its jobs come home and run locally once the
	// worker frees up.
	if got := s.ReenqueueStolen("n2"); got != 1 {
		t.Fatalf("reclaimed %d, want 1", got)
	}
	// Reclaim is idempotent and peer-scoped.
	if got := s.ReenqueueStolen("n2"); got != 0 {
		t.Fatalf("second reclaim returned %d", got)
	}
	pin.Cancel()
	res := wait(t, j)
	if res.Status != "sat" {
		t.Fatalf("reclaimed job status %q", res.Status)
	}
}

func mustRecord(t *testing.T, kind string, v any) wal.Record {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return wal.Record{Kind: kind, Data: data}
}

func TestAdoptIsIdempotentUnderDoubleReplay(t *testing.T) {
	s := New(Config{Workers: 2, NodeID: "n1"})
	defer s.Close()

	p := smallProblem(t)
	fp := spec.Fingerprint(p)
	pending := mustRecord(t, recSubmit, submitRecord{
		ID: "px-j000001", Mode: ModeSolve, Fingerprint: fp,
		JobSource: JobSource{Spec: smallSpec}, TimeoutMS: 60_000,
	})
	// A proven unsat under a fabricated fingerprint: adoption must seed
	// the cache with it without ever running anything.
	finishedSub := mustRecord(t, recSubmit, submitRecord{
		ID: "px-j000002", Mode: ModeSolve, Fingerprint: "feedface", JobSource: JobSource{Spec: smallSpec}, TimeoutMS: 60_000,
	})
	finishedRes := mustRecord(t, recResult, resultRecord{
		ID: "px-j000002", State: StateDone, Mode: ModeSolve, Fingerprint: "feedface",
		Result: &Result{Status: "unsat"},
	})
	records := []wal.Record{pending, finishedSub, finishedRes}

	rep := s.Adopt(records)
	if rep.Requeued != 1 || rep.Proven != 1 || rep.Duplicates != 0 {
		t.Fatalf("first adopt: %+v", rep)
	}
	if _, ok := s.CacheLookup("feedface", ModeSolve); !ok {
		t.Fatal("proven result did not seed the cache")
	}

	// The adopted pending job runs here under its origin ID.
	s.mu.Lock()
	j := s.jobs["px-j000001"]
	s.mu.Unlock()
	if j == nil {
		t.Fatal("adopted job not registered under origin ID")
	}
	if res := wait(t, j); res.Status != "sat" {
		t.Fatalf("adopted job status %q", res.Status)
	}
	completedAfterFirst := s.Stats().JobsCompleted

	// Replaying the same shadow again — racing takeovers, or a follower
	// that crashed mid-adopt and retried — must be a no-op.
	rep2 := s.Adopt(records)
	if rep2.Requeued != 0 || rep2.Duplicates != 1 {
		t.Fatalf("second adopt: %+v", rep2)
	}
	if got := s.Stats().JobsCompleted; got != completedAfterFirst {
		t.Fatalf("double replay re-ran work: completed %d -> %d", completedAfterFirst, got)
	}
	// Local ID minting must not have been perturbed by the foreign
	// prefix: the next local job is n1-j…, not px-j….
	j2 := queuedVariant(t, s, 1)
	if !strings.HasPrefix(j2.ID, "n1-j") {
		t.Fatalf("local job ID %q adopted a foreign prefix", j2.ID)
	}
}

func TestAdoptedCacheHitCompletesInstantly(t *testing.T) {
	s := New(Config{Workers: 1, NodeID: "n1"})
	defer s.Close()
	p := smallProblem(t)
	fp := spec.Fingerprint(p)

	// The dead peer had solved the problem AND had a second, unfinished
	// submission of it in flight: the proven record answers the pending
	// one without a solve.
	records := []wal.Record{
		mustRecord(t, recSubmit, submitRecord{ID: "px-j000001", Mode: ModeSolve, Fingerprint: fp, JobSource: JobSource{Spec: smallSpec}, TimeoutMS: 60_000}),
		mustRecord(t, recResult, resultRecord{ID: "px-j000001", State: StateDone, Mode: ModeSolve, Fingerprint: fp,
			Result: &Result{Status: "unsat"}}),
		mustRecord(t, recSubmit, submitRecord{ID: "px-j000002", Mode: ModeSolve, Fingerprint: fp, JobSource: JobSource{Spec: smallSpec}, TimeoutMS: 60_000}),
	}
	rep := s.Adopt(records)
	if rep.Proven != 1 || rep.Requeued != 1 {
		t.Fatalf("adopt: %+v", rep)
	}
	s.mu.Lock()
	j := s.jobs["px-j000002"]
	s.mu.Unlock()
	if j == nil {
		t.Fatal("pending duplicate not registered")
	}
	res := wait(t, j)
	if !res.Cached || res.Status != "unsat" {
		t.Fatalf("adopted duplicate should complete from cache: %+v", res)
	}
}

// TestModelTooLargeSurfacesAs422 is the end-to-end regression for the
// arena-overflow error chain: sat's typed panic must arrive at the HTTP
// client as a 422 with the decomposition hint, never as a crashed
// worker or an opaque 500.
func TestModelTooLargeSurfacesAs422(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	p := smallProblem(t)
	// A 64-word arena cannot hold even the small spec's clauses, so the
	// monolithic encode overflows exactly like a paper-scale problem
	// would against the real 31-bit cap.
	p.Options.Solver.ArenaCapWords = 64

	j, err := s.Submit(p, SubmitOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if _, jerr := j.Result(); jerr == nil || !strings.Contains(jerr.Error(), core.ErrModelTooLarge.Error()) {
		t.Fatalf("job error = %v, want ErrModelTooLarge", jerr)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 422 {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "mode=decomp") {
		t.Fatalf("422 body lacks the decomp hint: %s", body)
	}
	// /v1/verify without a design runs the same job and hands the same
	// error to the same status mapping.
	_, _, verr := s.Verify(context.Background(), p, nil, time.Minute, nil)
	if !errors.Is(verr, core.ErrModelTooLarge) {
		t.Fatalf("Verify error = %v, want ErrModelTooLarge", verr)
	}
	if status, _ := errorStatus(verr); status != 422 {
		t.Fatalf("Verify's error maps to %d, want 422", status)
	}
	// The worker survived: the next job solves normally.
	if res := wait(t, mustSubmit(t, s, smallProblem(t), SubmitOptions{})); res.Status != "sat" {
		t.Fatalf("worker wedged after arena overflow: %q", res.Status)
	}
}

// TestSubmitSourceBuildsOnlyOnAMiss: a stolen job arrives as a source and
// the fingerprint its origin accepted it under. One the thief's cache
// answers completes with no problem built; one it does not is built and
// solved; one whose source no longer hashes to its fingerprint is refused
// and registers no job.
func TestSubmitSourceBuildsOnlyOnAMiss(t *testing.T) {
	s := New(Config{Workers: 1, NodeID: "n2"})
	defer s.Close()
	solved, err := submitSpec(t, s, specVariant(5), ModeSolve)
	if err != nil {
		t.Fatal(err)
	}
	fp := wait(t, solved).Fingerprint
	other, err := specParse(specVariant(6))
	if err != nil {
		t.Fatal(err)
	}
	otherFP := spec.Fingerprint(other)

	hit, err := s.SubmitSource(&JobSource{Spec: specVariant(5)}, fp, SubmitOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if hit.State() != StateDone || hit.prob != nil {
		t.Fatalf("stolen repeat of a solved problem: state %s, built %v; want done from the cache with no problem built",
			hit.State(), hit.prob != nil)
	}
	if res := wait(t, hit); !res.Cached {
		t.Errorf("stolen repeat was not answered from the cache: %+v", res)
	}

	miss, err := s.SubmitSource(&JobSource{Spec: specVariant(6)}, otherFP, SubmitOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if miss.prob == nil {
		t.Fatal("stolen new problem was queued without its problem built")
	}
	if res := wait(t, miss); res.Cached || res.Fingerprint != otherFP {
		t.Errorf("stolen new problem: %+v, want a solve under its own fingerprint", res)
	}

	before := len(s.JobIDs())
	if _, err := s.SubmitSource(&JobSource{Spec: specVariant(5)}, otherFP, SubmitOptions{Timeout: time.Minute}); err == nil {
		t.Fatal("a source that hashes to another fingerprint was accepted")
	}
	if after := len(s.JobIDs()); after != before {
		t.Errorf("a refused source registered %d job(s)", after-before)
	}
}

// TestWireRecordsKeepTheirBytes: the journal's submit record and the
// stolen job a peer receives carry their source inline, byte for byte as
// journals and peers of earlier builds wrote and read them.
func TestWireRecordsKeepTheirBytes(t *testing.T) {
	const text = "nodes 2 1\nlink 1 3\nlink 2 3\n"
	for _, c := range []struct {
		v    any
		want string
	}{
		{submitRecord{ID: "j000007", Mode: ModeSolve, Fingerprint: "5eed", JobSource: JobSource{Spec: text}, TimeoutMS: 60_000},
			`{"id":"j000007","mode":"solve","fp":"5eed","spec":"nodes 2 1\nlink 1 3\nlink 2 3\n","timeout_ms":60000}`},
		{submitRecord{ID: "j000008", Mode: ModeMaxIsolation, Fingerprint: "5eed", JobSource: JobSource{Example: true}, TimeoutMS: 30_000},
			`{"id":"j000008","mode":"max-isolation","fp":"5eed","example":true,"timeout_ms":30000}`},
		{StolenJob{ID: "n1-j000007", Mode: ModeSolve, Fingerprint: "5eed", JobSource: JobSource{Spec: text}, RemainingMS: 1500},
			`{"id":"n1-j000007","mode":"solve","fp":"5eed","spec":"nodes 2 1\nlink 1 3\nlink 2 3\n","remaining_ms":1500}`},
		{StolenJob{ID: "n1-j000008", Mode: ModeMaxIsolation, Fingerprint: "5eed", JobSource: JobSource{Example: true}, RemainingMS: 1500},
			`{"id":"n1-j000008","mode":"max-isolation","fp":"5eed","example":true,"remaining_ms":1500}`},
	} {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%T encodes as\n%s\nwant\n%s", c.v, got, c.want)
		}
		back := reflect.New(reflect.TypeOf(c.v))
		if err := json.Unmarshal([]byte(c.want), back.Interface()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Elem().Interface(), c.v) {
			t.Errorf("%s decodes as %+v, want %+v", c.want, back.Elem().Interface(), c.v)
		}
	}
}
