package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/spec"
	"configsynth/internal/wal"
)

// Tests for the cluster-facing service surface: offload and journal
// adoption. They run against a plain single service — the cluster layer
// is just an HTTP shell around these calls, so their invariants are
// pinned here where timing is fully controlled.

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

// heldPeer is an Offloader that counts its calls by fingerprint and
// answers each with a proven unsat result — marked as a cache hit on a
// warm session, as the peer sends it — once release is closed.
type heldPeer struct {
	t       *testing.T
	release chan struct{}
	mu      sync.Mutex
	calls   map[string]int
}

func newHeldPeer(t *testing.T) *heldPeer {
	return &heldPeer{t: t, release: make(chan struct{}), calls: map[string]int{}}
}

func (p *heldPeer) offload(ctx context.Context, src JobSource, fp string, mode Mode) (*Result, bool) {
	p.mu.Lock()
	p.calls[fp]++
	p.mu.Unlock()
	if _, ok := ctx.Deadline(); src.Spec == "" || !ok {
		p.t.Errorf("offload of %.12s without its spec text or deadline", fp)
	}
	<-p.release
	return &Result{Status: "unsat", Mode: mode, Fingerprint: fp, Cached: true, Session: "reused"}, true
}

func (p *heldPeer) callsOf(fp string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls[fp]
}

// waitState polls until j is in state st.
func waitState(t *testing.T, j *Job, st JobState) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); j.State() != st; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", j.ID, j.State(), st)
		}
	}
}

// TestOffloadClaimsEachJobOnce: an offload claims the oldest queued jobs
// as a worker would, so a worker that dequeues one later skips it and a
// second offload does not take it again; the peer's answer settles the
// job as a fresh solve that seeds the cache.
func TestOffloadClaimsEachJobOnce(t *testing.T) {
	s := New(Config{Workers: 1, NodeID: "n1"})
	defer s.Close()
	pin := pinWorker(t, s)
	j1 := queuedVariant(t, s, 1)
	j2 := queuedVariant(t, s, 2)
	peer := newHeldPeer(t)

	s.Offload(1, peer.offload)
	waitState(t, j1, StateRunning)
	if j2.State() != StateQueued {
		t.Fatalf("an offload of one took %s before the older %s", j2.ID, j1.ID)
	}
	s.Offload(5, peer.offload)
	waitState(t, j2, StateRunning)
	s.Offload(5, peer.offload) // nothing queued is left to claim

	// The worker frees up and dequeues both claimed jobs before a third:
	// it must skip them while their offloads are in flight.
	pin.Cancel()
	if res := wait(t, queuedVariant(t, s, 3)); res.Status != "sat" {
		t.Fatalf("local job behind the offloaded ones: %+v", res)
	}
	for _, j := range []*Job{j1, j2} {
		if j.State() != StateRunning {
			t.Fatalf("offloaded job %s is %s before the peer answered", j.ID, j.State())
		}
	}

	close(peer.release)
	for _, j := range []*Job{j1, j2} {
		res := wait(t, j)
		if res.Status != "unsat" || res.Cached || res.Session != "" {
			t.Errorf("job %s settled as %+v, want the peer's unsat as a fresh solve", j.ID, res)
		}
		if n := peer.callsOf(j.Fingerprint); n != 1 {
			t.Errorf("job %s offloaded %d times, want once", j.ID, n)
		}
		if _, ok := s.CacheLookup(j.Fingerprint, ModeSolve); !ok {
			t.Errorf("the peer's proven answer for %s did not seed the cache", j.ID)
		}
	}
}

// TestRefusedOffloadRunsLocally: a peer that gives no answer leaves the
// job to solve here, on the goroutine that offloaded it, as if it had
// never left — the pinned worker plays no part.
func TestRefusedOffloadRunsLocally(t *testing.T) {
	s := New(Config{Workers: 1, NodeID: "n1"})
	defer s.Close()
	pinWorker(t, s)
	j := queuedVariant(t, s, 1)
	calls := 0
	s.Offload(1, func(context.Context, JobSource, string, Mode) (*Result, bool) {
		calls++
		return nil, false
	})
	if res := wait(t, j); res.Status != "sat" || res.Cached || calls != 1 {
		t.Fatalf("refused offload: %+v after %d offloads, want a local sat solve after one", res, calls)
	}
}

// TestOffloadedReplayDropsTheGateOnce: a replayed job holds /readyz at
// 503 until it is terminal, and counts down exactly once whichever
// runJob claims it — here the offload, with the workers dequeuing it
// afterwards.
func TestOffloadedReplayDropsTheGateOnce(t *testing.T) {
	cfg := Config{Workers: 1, NodeID: "n1", JournalPath: filepath.Join(t.TempDir(), "journal.wal")}
	s1, err := open(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	queuedVariant(t, s1, 1)
	queuedVariant(t, s1, 2)
	s1.crash()

	s, err := open(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.replayPending.Load(); got != 2 {
		t.Fatalf("%d replayed jobs pending, want 2", got)
	}
	peer := newHeldPeer(t)
	close(peer.release)
	s.Offload(5, peer.offload)
	for _, j := range s.allJobs() {
		wait(t, j)
	}
	s.startPool()
	for deadline := time.Now().Add(10 * time.Second); len(s.queue) > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the workers never drained the offloaded jobs")
		}
	}
	if got := s.replayPending.Load(); got != 0 {
		t.Fatalf("replay gate at %d after both replayed jobs settled, want 0", got)
	}
	if ok, why := s.Ready(); !ok {
		t.Fatalf("not ready after the replay settled: %s", why)
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

// TestWireRecordsKeepTheirBytes: the journal's submit record carries its
// source inline, byte for byte as journals of earlier builds wrote and
// read it.
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
