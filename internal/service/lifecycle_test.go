package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"configsynth/internal/faults"
	"configsynth/internal/wal"
)

// outcomes are the counters settle moves: exactly one of the first four
// per terminal job, plus degraded alongside completed.
type outcomes struct {
	completed, failed, canceled, dropped, degraded int64
}

func outcomesOf(s *Service) outcomes {
	st := s.Stats()
	return outcomes{st.JobsCompleted, st.JobsFailed, st.JobsCanceled, st.JobsDroppedStale, st.JobsDegraded}
}

func (a outcomes) minus(b outcomes) outcomes {
	return outcomes{a.completed - b.completed, a.failed - b.failed, a.canceled - b.canceled,
		a.dropped - b.dropped, a.degraded - b.degraded}
}

// unsatSpec asks the small topology for isolation 9 on a zero budget.
var unsatSpec = strings.Replace(smallSpec, "sliders 2.5 5 30", "sliders 9 5 0", 1)

// TestCountersFinalAtDone: on every terminal path, a client woken by
// withFaults installs a fault plan until the test ends.
func withFaults(t *testing.T, plan string) {
	t.Helper()
	t.Cleanup(setFaults(t, plan))
}

// setFaults installs a fault plan and returns what removes it again.
func setFaults(t *testing.T, plan string) (restore func()) {
	t.Helper()
	p, err := faults.Parse(plan)
	if err != nil {
		t.Fatal(err)
	}
	return faults.Set(p)
}

// stalledSolves is a fault plan under which every solve first sleeps
// 100 ms, and noIncumbentTimeout a job deadline that expires inside the
// first of them: the job meets its deadline mid-search with nothing to
// degrade to, however fast the machine or the encode. (A bare 1 ms
// deadline did that only while encoding the hard problem took longer
// than 1 ms.)
const (
	stalledSolves      = "seed=5," + faults.SatSolveDelay + "=1:100ms"
	noIncumbentTimeout = 30 * time.Millisecond
)

// Done() that reads /statsz at once must find the job's outcome already
// counted — exactly one outcome counter up by one, none of the others
// touched. PR 13 and PR 14 each met a path where the counter lagged the
// wake-up as a 1-in-8 flake; settle orders them for all paths, and this
// pins it (run with -race -count=20).
func TestCountersFinalAtDone(t *testing.T) {
	// unstarted opens a service whose pool never starts: jobs stay
	// queued until the case runs one by hand or offloads it.
	unstarted := func(t *testing.T, cfg Config) *Service {
		t.Helper()
		s, err := open(cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	started := func(t *testing.T) *Service {
		t.Helper()
		s := New(Config{Workers: 1})
		t.Cleanup(s.Close)
		return s
	}
	submit := func(t *testing.T, s *Service, text string, opts SubmitOptions) *Job {
		t.Helper()
		p, err := specParse(text)
		if err != nil {
			t.Fatal(err)
		}
		opts.Source = &JobSource{Spec: text}
		return mustSubmit(t, s, p, opts)
	}

	cases := []struct {
		name string
		// run brings a service to the point just before the terminal
		// transition, calls snap, triggers the transition and returns
		// the job to wait on.
		run  func(t *testing.T, snap func(*Service)) *Job
		want outcomes
	}{
		{"solve sat", func(t *testing.T, snap func(*Service)) *Job {
			s := started(t)
			snap(s)
			return submit(t, s, smallSpec, SubmitOptions{})
		}, outcomes{completed: 1}},
		{"solve unsat", func(t *testing.T, snap func(*Service)) *Job {
			s := started(t)
			snap(s)
			return submit(t, s, unsatSpec, SubmitOptions{})
		}, outcomes{completed: 1}},
		{"decomp", func(t *testing.T, snap func(*Service)) *Job {
			s := started(t)
			snap(s)
			return submit(t, s, twinSpec, SubmitOptions{Mode: ModeDecomp})
		}, outcomes{completed: 1}},
		{"submit hit", func(t *testing.T, snap func(*Service)) *Job {
			s := started(t)
			wait(t, submit(t, s, smallSpec, SubmitOptions{}))
			snap(s)
			return submit(t, s, smallSpec, SubmitOptions{})
		}, outcomes{completed: 1}},
		{"peer-fill hit", func(t *testing.T, snap func(*Service)) *Job {
			s := started(t)
			s.SetPeerFill(func(context.Context, string, Mode) (*Result, bool) {
				return &Result{Status: "unsat"}, true
			})
			snap(s)
			return submit(t, s, smallSpec, SubmitOptions{})
		}, outcomes{completed: 1}},
		{"cancel while queued", func(t *testing.T, snap func(*Service)) *Job {
			s := unstarted(t, Config{})
			j := submit(t, s, smallSpec, SubmitOptions{})
			j.Cancel()
			snap(s)
			go s.runJob(<-s.queue, nil)
			return j
		}, outcomes{canceled: 1}},
		{"deadline without an incumbent", func(t *testing.T, snap func(*Service)) *Job {
			withFaults(t, stalledSolves)
			s := started(t)
			snap(s)
			return mustSubmit(t, s, hardProblem(t), SubmitOptions{Mode: ModeMaxIsolation, Timeout: noIncumbentTimeout})
		}, outcomes{canceled: 1}},
		{"deadline with an incumbent", func(t *testing.T, snap func(*Service)) *Job {
			withFaults(t, stalledSolves)
			s := started(t)
			snap(s)
			return submit(t, s, smallSpec, SubmitOptions{Mode: ModeMaxIsolation, Timeout: 350 * time.Millisecond})
		}, outcomes{completed: 1, degraded: 1}},
		{"encode failure", func(t *testing.T, snap func(*Service)) *Job {
			s := started(t)
			p := smallProblem(t)
			p.Options.Solver.ArenaCapWords = 64
			snap(s)
			return mustSubmit(t, s, p, SubmitOptions{})
		}, outcomes{failed: 1}},
		{"contained solver panic", func(t *testing.T, snap func(*Service)) *Job {
			withFaults(t, "seed=3,"+faults.SatSolvePanic+"=1")
			s := started(t)
			snap(s)
			return submit(t, s, smallSpec, SubmitOptions{})
		}, outcomes{failed: 1}},
		{"offloaded ok", func(t *testing.T, snap func(*Service)) *Job {
			s := unstarted(t, Config{NodeID: "n1"})
			j := submit(t, s, smallSpec, SubmitOptions{})
			snap(s)
			s.Offload(1, func(_ context.Context, _ JobSource, fp string, mode Mode) (*Result, bool) {
				return &Result{Status: "unsat", Mode: mode, Fingerprint: fp}, true
			})
			return j
		}, outcomes{completed: 1}},
		{"offload refused", func(t *testing.T, snap func(*Service)) *Job {
			s := unstarted(t, Config{NodeID: "n1"})
			j := submit(t, s, smallSpec, SubmitOptions{})
			snap(s)
			s.Offload(1, func(context.Context, JobSource, string, Mode) (*Result, bool) { return nil, false })
			return j
		}, outcomes{completed: 1}},
		{"offloaded deadline", func(t *testing.T, snap func(*Service)) *Job {
			s := unstarted(t, Config{NodeID: "n1"})
			j := submit(t, s, smallSpec, SubmitOptions{Timeout: 50 * time.Millisecond})
			snap(s)
			s.Offload(1, func(ctx context.Context, _ JobSource, _ string, _ Mode) (*Result, bool) {
				<-ctx.Done()
				return nil, false
			})
			return j
		}, outcomes{canceled: 1}},
		{"superseded by takeover", func(t *testing.T, snap func(*Service)) *Job {
			cfg := Config{JournalPath: filepath.Join(t.TempDir(), "journal.ndjson")}
			s1, err := open(cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			id := submit(t, s1, smallSpec, SubmitOptions{}).ID
			s1.crash()
			s2 := unstarted(t, cfg)
			j, ok := s2.Job(id)
			if !ok {
				t.Fatalf("job %s not replayed", id)
			}
			snap(s2)
			go s2.DropSuperseded([]string{id})
			return j
		}, outcomes{dropped: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s *Service
			var before outcomes
			j := tc.run(t, func(svc *Service) { s, before = svc, outcomesOf(svc) })
			select {
			case <-j.Done():
			case <-time.After(60 * time.Second):
				t.Fatal("job never became terminal")
			}
			got := outcomesOf(s).minus(before)
			want := tc.want
			if res, _ := j.Result(); want.degraded == 1 && res != nil && !res.Degraded {
				want.degraded = 0 // the descent beat the injected delay; nothing was degraded
			}
			if got != want {
				t.Errorf("outcome counters at Done() moved by %+v, want %+v", got, want)
			}
		})
	}
}

// assertLifecycle checks what one lifecycle guarantees once a service is
// quiescent (every registered job terminal): each job that came in —
// submitted, replayed or adopted — went out under exactly one outcome
// counter; every registered job is terminal and sits exactly once in the
// retention ring; and the result cache holds only proven answers, stored
// without the marks of the response they first went out on.
func assertLifecycle(t *testing.T, s *Service) {
	t.Helper()
	st := s.Stats()
	in := st.JobsSubmitted + st.JobsReplayed + st.JobsAdopted
	out := st.JobsCompleted + st.JobsFailed + st.JobsCanceled + st.JobsDroppedStale
	if in != out {
		t.Errorf("jobs in = %d (submitted %d + replayed %d + adopted %d), out = %d (completed %d + failed %d + canceled %d + dropped %d)",
			in, st.JobsSubmitted, st.JobsReplayed, st.JobsAdopted,
			out, st.JobsCompleted, st.JobsFailed, st.JobsCanceled, st.JobsDroppedStale)
	}
	s.mu.Lock()
	ring := make(map[string]int, len(s.finished))
	for _, id := range s.finished {
		ring[id]++
	}
	s.mu.Unlock()
	jobs := s.allJobs()
	for _, j := range jobs {
		switch j.State() {
		case StateDone, StateFailed, StateCanceled:
		default:
			t.Errorf("job %s still %s on a quiescent service", j.ID, j.State())
		}
		if ring[j.ID] != 1 {
			t.Errorf("job %s appears %d times in the retention ring, want 1", j.ID, ring[j.ID])
		}
	}
	if len(ring) != len(jobs) {
		t.Errorf("retention ring holds %d IDs for %d registered jobs", len(ring), len(jobs))
	}
	s.cache.Each(func(key string, e *cached) {
		res := e.res
		if res.Degraded || (res.Status == "sat" && (res.Design == nil || !res.Design.Exact)) {
			t.Errorf("cache holds an unproven result for %.20s: %+v", key, res)
		}
		if res.Cached || res.Session != "" {
			t.Errorf("stored result for %.20s carries response marks: cached=%v session=%q", key, res.Cached, res.Session)
		}
	})
}

// assertJournalPaired reads a journal as it stands on disk and checks
// that it holds wantSubmits submit records, each followed by exactly one
// result record. (Result records without a submit are what compaction
// keeps of earlier runs; they must not repeat either.)
func assertJournalPaired(t *testing.T, path string, wantSubmits int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	submits, results := map[string]int{}, map[string]int{}
	for _, r := range wal.ParseSegment(data) {
		var id struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(r.Data, &id); err != nil {
			t.Fatal(err)
		}
		switch r.Kind {
		case recSubmit:
			submits[id.ID]++
		case recResult:
			results[id.ID]++
		}
	}
	if len(submits) != wantSubmits {
		t.Errorf("journal %s holds %d submit records, want %d", filepath.Base(path), len(submits), wantSubmits)
	}
	for id, n := range submits {
		if n != 1 || results[id] != 1 {
			t.Errorf("job %s: %d submit and %d result records, want 1 and 1", id, n, results[id])
		}
	}
	for id, n := range results {
		if n != 1 {
			t.Errorf("job %s: %d result records", id, n)
		}
	}
}

// awaitQuiescent waits until every registered job is terminal and no
// worker is still inside runJob: retirement and the journal record come
// after the wake-up, so Done() alone does not mean the books are closed.
func awaitQuiescent(t *testing.T, s *Service) {
	t.Helper()
	deadline := time.After(60 * time.Second)
	for _, j := range s.allJobs() {
		select {
		case <-j.Done():
		case <-deadline:
			t.Fatalf("job %s never became terminal", j.ID)
		}
	}
	for s.active.Load() != 0 {
		select {
		case <-deadline:
			t.Fatal("workers never went idle")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestLifecycleInvariants drives every way into and out of a journaled
// service — hits, sat, unsat, decomp, what-if on a fresh and on a reused
// session, a deadline, a degraded answer, a contained panic — then
// crashes it with work in flight and brings that work back twice: by
// restarting on the journal (with one job superseded by the rejoin
// handshake) and by adopting a copy of the journal on another node.
// After each stage the books must balance.
func TestLifecycleInvariants(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, JournalPath: filepath.Join(dir, "n1.ndjson")}
	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(s *Service, text string, mode Mode, timeout time.Duration) *Job {
		t.Helper()
		p, err := specParse(text)
		if err != nil {
			t.Fatal(err)
		}
		return mustSubmit(t, s, p, SubmitOptions{Mode: mode, Timeout: timeout, Source: &JobSource{Spec: text}})
	}

	parent := submit(s1, specVariant(0), ModeSolve, 0)
	wait(t, parent)
	if hit := wait(t, submit(s1, specVariant(0), ModeSolve, 0)); !hit.Cached {
		t.Fatal("resubmission missed the cache")
	}
	const unjournaledHits = 1
	submit(s1, unsatSpec, ModeSolve, 0)
	submit(s1, twinSpec, ModeDecomp, 0)
	for i, want := range []string{"fresh", "reused"} {
		budget := int64(40 + i)
		j, err := s1.WhatIf(parent.ID, WhatIfDelta{CostBudget: &budget}, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res := wait(t, j); res.Session != want {
			t.Fatalf("what-if %d ran on a %q session, want %q", i, res.Session, want)
		}
	}
	restoreStall := setFaults(t, stalledSolves)
	late := mustSubmit(t, s1, hardProblem(t), SubmitOptions{Mode: ModeMaxIsolation, Timeout: noIncumbentTimeout})
	<-late.Done()
	restoreStall()
	if late.State() != StateCanceled {
		t.Fatalf("deadline job ended %s, want canceled", late.State())
	}
	for _, f := range []struct {
		plan string
		mode Mode
		text string
	}{
		{"seed=5," + faults.SatSolveDelay + "=1:100ms", ModeMaxIsolation, specVariant(5)}, // degraded
		{"seed=3," + faults.SatSolvePanic + "=1", ModeSolve, specVariant(6)},              // failed
	} {
		plan, err := faults.Parse(f.plan)
		if err != nil {
			t.Fatal(err)
		}
		restore := faults.Set(plan)
		<-submit(s1, f.text, f.mode, 350*time.Millisecond).Done()
		restore()
	}
	awaitQuiescent(t, s1)
	assertLifecycle(t, s1)
	st := s1.Stats()
	if st.JobsFailed != 1 || st.JobsCanceled != 1 {
		t.Errorf("mixed run: failed %d, canceled %d, want 1 and 1", st.JobsFailed, st.JobsCanceled)
	}
	assertJournalPaired(t, cfg.JournalPath, int(st.JobsSubmitted)-unjournaledHits)

	// Crash with three accepted jobs in flight: stretched solves keep
	// them from finishing before the journal closes under them.
	plan, err := faults.Parse("seed=1," + faults.SatSolveDelay + "=1:300ms")
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Set(plan)
	var inflight []string
	for i := 20; i < 23; i++ {
		inflight = append(inflight, submit(s1, specVariant(i), ModeSolve, 0).ID)
	}
	s1.crash()
	restore()
	crashed, err := os.ReadFile(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}

	// Restart on the journal; the rejoin handshake finds one of the three
	// adopted elsewhere.
	s2, err := OpenHeld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.DropSuperseded(inflight[:1]); got != 1 {
		t.Fatalf("dropped %d superseded jobs, want 1", got)
	}
	s2.StartWorkers()
	awaitQuiescent(t, s2)
	assertLifecycle(t, s2)
	if st := s2.Stats(); st.JobsReplayed != 3 || st.JobsCompleted != 2 || st.JobsDroppedStale != 1 {
		t.Errorf("restart: replayed %d, completed %d, dropped %d, want 3, 2, 1", st.JobsReplayed, st.JobsCompleted, st.JobsDroppedStale)
	}
	assertJournalPaired(t, cfg.JournalPath, 3)

	// Adopt a copy of the crashed journal on another node.
	cfg3 := Config{Workers: 2, NodeID: "n3", JournalPath: filepath.Join(dir, "n3.ndjson")}
	s3, err := Open(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if rep := s3.Adopt(wal.ParseSegment(crashed)); rep.Requeued != 3 || rep.Failed != 0 {
		t.Fatalf("adopt: %+v, want 3 requeued", rep)
	}
	awaitQuiescent(t, s3)
	assertLifecycle(t, s3)
	if st := s3.Stats(); st.JobsAdopted != 3 || st.JobsCompleted != 3 {
		t.Errorf("adoption: adopted %d, completed %d, want 3 and 3", st.JobsAdopted, st.JobsCompleted)
	}
	assertJournalPaired(t, cfg3.JournalPath, 3)
}

func TestCacheKeyScopesByMode(t *testing.T) {
	if cacheKey("fp", ModeSolve) == cacheKey("fp", ModeMaxIsolation) {
		t.Error("cache keys must differ across modes")
	}
}
