package service

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/faults"
	"configsynth/internal/spec"
)

// specVariant renders smallSpec with a distinct cost budget, so test
// workloads get many distinct fingerprints over the same tiny topology.
func specVariant(i int) string {
	return strings.Replace(smallSpec, "sliders 2.5 5 30", fmt.Sprintf("sliders 2.5 5 %d", 30+i), 1)
}

// submitSpec parses and submits one spec with its source attached, the
// way the HTTP layer does.
func submitSpec(t *testing.T, s *Service, text string, mode Mode) (*Job, error) {
	t.Helper()
	p, err := specParse(text)
	if err != nil {
		t.Fatal(err)
	}
	return s.Submit(p, SubmitOptions{Mode: mode, Source: &JobSource{Spec: text}})
}

func specParse(text string) (*core.Problem, error) {
	return spec.Parse(strings.NewReader(text))
}

// TestJournalReplayCompletesAcceptedJobs is the core crash-recovery
// property: jobs accepted (journaled) but never run before a
// SIGKILL-style crash are re-enqueued on reopen under their original
// IDs and all reach a terminal state with fingerprint-identical
// results.
func TestJournalReplayCompletesAcceptedJobs(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.ndjson")
	cfg := Config{Workers: 2, QueueDepth: 32, JournalPath: journal}

	// Workers never start, so every accepted job is still queued when the
	// process "dies".
	s1, err := open(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	type acceptedJob struct {
		id string
		fp string
	}
	var accepted []acceptedJob
	for i := 0; i < 5; i++ {
		j, err := submitSpec(t, s1, specVariant(i), ModeSolve)
		if err != nil {
			t.Fatal(err)
		}
		accepted = append(accepted, acceptedJob{id: j.ID, fp: j.Fingerprint})
	}
	s1.crash()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().JobsReplayed; got != int64(len(accepted)) {
		t.Errorf("JobsReplayed = %d, want %d", got, len(accepted))
	}
	for _, a := range accepted {
		j, ok := s2.Job(a.id)
		if !ok {
			t.Fatalf("accepted job %s lost across restart", a.id)
		}
		res := wait(t, j)
		if res.Status != "sat" {
			t.Errorf("job %s: status %q", a.id, res.Status)
		}
		if res.Fingerprint != a.fp {
			t.Errorf("job %s: fingerprint %s, want %s", a.id, res.Fingerprint, a.fp)
		}
	}
	// Replay drained, so the service is ready again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ready, _ := s2.Ready(); ready {
			break
		}
		if time.Now().After(deadline) {
			ready, reason := s2.Ready()
			t.Fatalf("service never became ready after replay: ready=%v reason=%q", ready, reason)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// New IDs must not collide with replayed ones.
	j, err := submitSpec(t, s2, specVariant(99), ModeSolve)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accepted {
		if j.ID == a.id {
			t.Fatalf("fresh job reused replayed ID %s", a.id)
		}
	}
	wait(t, j)
}

// TestReplayDedupServesProvenResultInstantly: a replayed job whose
// fingerprint already has a proven journaled result must complete from
// the re-seeded cache without re-solving.
func TestReplayDedupServesProvenResultInstantly(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.ndjson")
	cfg := Config{Workers: 1, QueueDepth: 32, JournalPath: journal}

	// Stage 1: two jobs over the same spec are accepted; neither runs.
	s1, err := open(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	a, err := submitSpec(t, s1, specVariant(0), ModeSolve)
	if err != nil {
		t.Fatal(err)
	}
	b, err := submitSpec(t, s1, specVariant(0), ModeSolve)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatal("same spec produced different fingerprints")
	}
	s1.crash()

	// Stage 2: replay re-enqueues both; run exactly the first, then die
	// again. Its proven result is now journaled.
	s2, err := open(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	ra, ok := <-s2.queue
	if !ok {
		t.Fatal("no replayed job in queue")
	}
	s2.runJob(ra, nil)
	resA := wait(t, ra)
	if resA.Status != "sat" {
		t.Fatalf("first replayed job: status %q", resA.Status)
	}
	s2.crash()

	// Stage 3: the survivor completes instantly from the re-seeded cache,
	// fingerprint-identical, without touching the solvers.
	s3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	rb, ok := s3.Job(b.ID)
	if !ok {
		t.Fatalf("job %s lost in stage 3", b.ID)
	}
	resB := wait(t, rb)
	if !resB.Cached {
		t.Error("deduplicated replay was not served from the cache")
	}
	if resB.Fingerprint != resA.Fingerprint || resB.Status != resA.Status {
		t.Errorf("replayed result diverged: %+v vs %+v", resB, resA)
	}
	if st := s3.Stats(); st.Solver.Propagations != 0 {
		t.Errorf("dedup replay ran the solver: %d propagations", st.Solver.Propagations)
	}
}

// TestSolverPanicContainedAsFailedJob: an injected rate-1 solver panic
// must become a failed job carrying the stack and fingerprint — the
// daemon (and its worker pool) survives and serves the next request.
func TestSolverPanicContainedAsFailedJob(t *testing.T) {
	plan, err := faults.Parse("seed=3," + faults.SatSolvePanic + "=1")
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Set(plan)

	s := New(Config{Workers: 1})
	defer s.Close()

	j, err := submitSpec(t, s, specVariant(0), ModeSolve)
	if err != nil {
		restore()
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		restore()
		t.Fatal("panicking job never became terminal")
	}
	restore()

	if st := j.State(); st != StateFailed {
		t.Fatalf("state = %s, want failed", st)
	}
	_, jerr := j.Result()
	var pe *SolverPanicError
	if !errors.As(jerr, &pe) {
		t.Fatalf("error %T %v, want *SolverPanicError", jerr, jerr)
	}
	if pe.Fingerprint != j.Fingerprint {
		t.Errorf("panic error fingerprint %s, want %s", pe.Fingerprint, j.Fingerprint)
	}
	if !strings.Contains(pe.Stack, "goroutine") {
		t.Error("panic error carries no stack")
	}
	if got := s.Stats().PanicsRecovered; got < 1 {
		t.Errorf("PanicsRecovered = %d, want >= 1", got)
	}

	// Faults are off now: the same service must still solve.
	j2, err := submitSpec(t, s, specVariant(0), ModeSolve)
	if err != nil {
		t.Fatal(err)
	}
	if res := wait(t, j2); res.Status != "sat" {
		t.Errorf("post-panic job: status %q", res.Status)
	}
}

// TestSubmitRejectedWhenJournalUnavailable: if the accept-side journal
// write fails, the submission must be refused with ErrJournal (the
// client can retry) instead of accepted into a state a crash would
// silently lose.
func TestSubmitRejectedWhenJournalUnavailable(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.ndjson")
	s, err := Open(Config{Workers: 1, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	plan, err := faults.Parse("seed=1," + faults.ServiceJournalErr + "=1")
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Set(plan)
	_, serr := submitSpec(t, s, specVariant(1), ModeSolve)
	restore()
	if !errors.Is(serr, ErrJournal) {
		t.Fatalf("submit under journal fault: %v, want ErrJournal", serr)
	}
	if got := s.Stats().JournalErrors; got < 1 {
		t.Errorf("JournalErrors = %d, want >= 1", got)
	}

	// The journal is healthy again: the retry goes through.
	j, err := submitSpec(t, s, specVariant(1), ModeSolve)
	if err != nil {
		t.Fatal(err)
	}
	if res := wait(t, j); res.Status != "sat" {
		t.Errorf("retried job: status %q", res.Status)
	}
}

// TestDegradedResultOnDeadline: when an injected per-solve delay makes
// the deadline land mid-descent, the job must answer with the feasible
// incumbent marked degraded instead of a bare timeout.
func TestDegradedResultOnDeadline(t *testing.T) {
	plan, err := faults.Parse("seed=5," + faults.SatSolveDelay + "=1:100ms")
	if err != nil {
		t.Fatal(err)
	}
	defer faults.Set(plan)()

	s := New(Config{Workers: 1})
	defer s.Close()

	p, err := specParse(specVariant(0))
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(p, SubmitOptions{Mode: ModeMaxIsolation, Timeout: 350 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res := wait(t, j)
	if !res.Degraded {
		if res.Design != nil && res.Design.Exact {
			t.Skip("descent finished under the deadline; nothing to degrade")
		}
		t.Fatalf("deadline mid-descent produced a non-degraded result: %+v", res)
	}
	if res.DegradedReason != "deadline" {
		t.Errorf("degraded reason %q, want deadline", res.DegradedReason)
	}
	if res.Design == nil || res.Design.Exact {
		t.Fatalf("degraded result must carry an inexact design: %+v", res.Design)
	}
	if res.Cached {
		t.Error("degraded result was cached")
	}
	if got := s.Stats().JobsDegraded; got != 1 {
		t.Errorf("JobsDegraded = %d, want 1", got)
	}
	// A re-submit must miss the cache and get a chance at the exact
	// answer (faults still on, so just check it is not a cache hit).
	j2, err := s.Submit(p, SubmitOptions{Mode: ModeMaxIsolation, Timeout: 350 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res2 := wait(t, j2); res2.Cached {
		t.Error("degraded answer was served from the cache on re-submit")
	}
}

// TestChaosCrashRestartLosesNothing is the chaos property from the
// issue: under a seeded ≥10% panic rate plus journal-append faults,
// with a SIGKILL-style crash mid-load and a restart against the same
// journal, every accepted job reaches a terminal state (here or after
// replay), results stay fingerprint-identical, no job is duplicated,
// and the daemon never exits.
func TestChaosCrashRestartLosesNothing(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.ndjson")
	cfg := Config{Workers: 1, QueueDepth: 64, JournalPath: journal}

	plan, err := faults.Parse("seed=13," + faults.SatSolvePanic + "=0.2," + faults.WALAppendErr + "=0.05")
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Set(plan)

	// Held: every submit below queues before the first solve. A queued job
	// solves even when an earlier one cached its answer, so the pool
	// reaches the schedule's first solver panic (the 13th solve) whatever
	// the timing. Started as it submits, a fast worker turned later
	// repeats into cache hits and sometimes finished below it.
	s1, err := OpenHeld(cfg)
	if err != nil {
		restore()
		t.Fatal(err)
	}
	type acceptedJob struct {
		id string
		fp string
	}
	var accepted []acceptedJob
	for i := 0; i < 24; i++ {
		j, err := submitSpec(t, s1, specVariant(i%8), ModeSolve)
		if errors.Is(err, ErrJournal) {
			continue // refused before acceptance; the client would retry
		}
		if err != nil {
			restore()
			t.Fatal(err)
		}
		accepted = append(accepted, acceptedJob{id: j.ID, fp: j.Fingerprint})
	}
	if len(accepted) == 0 {
		restore()
		t.Fatal("no job was accepted")
	}
	// Let the pool chew on the queue until the seeded schedule has fired
	// its first panic, then die mid-load. A fixed pause is not enough on
	// a loaded host: the pool may not have reached that solve yet.
	s1.StartWorkers()
	for deadline := time.Now().Add(30 * time.Second); s1.Stats().PanicsRecovered == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	panicsPhase1 := s1.Stats().PanicsRecovered
	s1.crash()
	restore()

	terminal1 := make(map[string]bool)
	for _, a := range accepted {
		if j, ok := s1.Job(a.id); ok {
			switch j.State() {
			case StateDone, StateFailed, StateCanceled:
				terminal1[a.id] = true
			}
		}
	}

	// Restart, fault-free, against the same journal.
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	seen := make(map[string]int)
	for _, a := range accepted {
		j, ok := s2.Job(a.id)
		if !ok {
			if !terminal1[a.id] {
				t.Errorf("job %s neither terminal before the crash nor replayed after it", a.id)
			}
			continue
		}
		seen[a.id]++
		res := wait(t, j)
		if res != nil && res.Fingerprint != a.fp {
			t.Errorf("job %s: fingerprint drifted %s -> %s", a.id, a.fp, res.Fingerprint)
		}
	}
	for id, n := range seen {
		if n > 1 {
			t.Errorf("job %s replayed %d times", id, n)
		}
	}
	if panicsPhase1 == 0 {
		// The seeded schedule fires well inside 24 solves at rate 0.2; a
		// zero here means containment stopped counting.
		t.Error("no solver panic was recovered in the chaos phase")
	}
	// The daemon survived everything above; prove it still serves.
	j, err := submitSpec(t, s2, specVariant(40), ModeSolve)
	if err != nil {
		t.Fatal(err)
	}
	if res := wait(t, j); res.Status != "sat" {
		t.Errorf("post-chaos job: status %q", res.Status)
	}
}
