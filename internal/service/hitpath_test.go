package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"configsynth/internal/spec"
	"configsynth/internal/wal"
)

// wideSpec is a spec of the size the hit path is measured at: hosts
// hosts on a ring of six routers, services services per host pair, and a
// requirement from every third host to the next.
func wideSpec(hosts, services int) string {
	const routers = 6
	var b strings.Builder
	fmt.Fprintf(&b, "devices 3\ncosts 5 8 6\nnodes %d %d\n", hosts, routers)
	for h := 1; h <= hosts; h++ {
		fmt.Fprintf(&b, "link %d %d\n", h, hosts+1+h%routers)
	}
	for r := 0; r < routers; r++ {
		fmt.Fprintf(&b, "link %d %d\n", hosts+1+r, hosts+1+(r+1)%routers)
	}
	fmt.Fprintf(&b, "services %d\n", services)
	for h := 1; h+1 <= hosts; h += 3 {
		fmt.Fprintf(&b, "require %d %d %d\n", h, h+1, 1+h%services)
	}
	b.WriteString("sliders 1 5 200\n")
	return b.String()
}

// serveSpec posts text to POST /v1/synthesize through h in process and
// checks the X-Cache verdict.
func serveSpec(t *testing.T, h http.Handler, text, xcache string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/synthesize", strings.NewReader(text)))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != xcache {
		t.Fatalf("status %d, X-Cache %q, want 200 %s: %.300s", rec.Code, rec.Header().Get("X-Cache"), xcache, rec.Body)
	}
	return rec
}

// TestHitRequestAllocBudget: one POST /v1/synthesize hit of a 40-host,
// 2-service spec through Handler(), from the request read to the last
// byte written, counted without the request and the recorder. Before the
// hit path scanned its spec it made 405 allocations, most of them
// building and validating a problem the hit never read; it makes 111
// now (Go 1.24, amd64). The budget is well under half the old count.
func TestHitRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	text := wideSpec(40, 2)
	serveSpec(t, h, text, "miss")
	serveSpec(t, h, text, "hit")

	const runs = 100
	reqs := make([]*http.Request, runs+1)
	recs := make([]*httptest.ResponseRecorder, runs+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/synthesize", strings.NewReader(text))
		recs[i] = httptest.NewRecorder()
	}
	n := 0
	allocs := testing.AllocsPerRun(runs, func() {
		h.ServeHTTP(recs[n], reqs[n])
		n++
	})
	for _, rec := range recs {
		if rec.Header().Get("X-Cache") != "hit" {
			t.Fatalf("a measured request was not a hit: status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
		}
	}
	if allocs > 150 {
		t.Errorf("a hit of a 40-host spec made %.0f allocations, want at most 150", allocs)
	}
}

// TestHitJobsRetainNoProblem: the finished-job ring holds 1 024 jobs.
// After 1 024 hits of a 40-host spec it holds no problem: a hit job
// keeps its source text, and a problem exists only while a what-if that
// names it as parent is being derived.
func TestHitJobsRetainNoProblem(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	text := wideSpec(40, 2)
	serveSpec(t, h, text, "miss")
	for i := 0; i < finishedRetention; i++ {
		serveSpec(t, h, text, "hit")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	hits := 0
	for _, j := range s.jobs {
		res, _ := j.Result()
		if res == nil || !res.Cached {
			continue
		}
		hits++
		if j.prob != nil {
			t.Fatalf("hit job %s holds a problem", j.ID)
		}
		if j.src == nil || j.src.Spec != text {
			t.Fatalf("hit job %s lost its source", j.ID)
		}
	}
	if hits != finishedRetention {
		t.Errorf("%d hit jobs retained, want %d", hits, finishedRetention)
	}
	// One cache lookup per request, hit or miss.
	if st := s.cache.Stats(); st.Hits != finishedRetention || st.Misses != 1 {
		t.Errorf("cache counted %d hits and %d misses, want %d and 1", st.Hits, st.Misses, finishedRetention)
	}
}

// TestWhatIfOnHitParentMatchesSolvedParent: a what-if naming a job the
// cache answered rebuilds the parent's problem from its source, and
// answers exactly what the same what-if answers naming the solved job —
// on a server of its own, so neither answer is the other's cache hit.
func TestWhatIfOnHitParentMatchesSolvedParent(t *testing.T) {
	const delta = `{"isolation_tenths":30,"cost_budget":36}`
	text := specVariant(4)
	whatIf := func(parentIsHit bool) []byte {
		t.Helper()
		s, srv := newTestServer(t, Config{Workers: 1})
		resp, body := postSpec(t, srv.URL+"/v1/synthesize", text)
		if parentIsHit {
			resp, body = postSpec(t, srv.URL+"/v1/synthesize", text)
		}
		want := map[bool]string{false: "miss", true: "hit"}[parentIsHit]
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != want {
			t.Fatalf("parent: status %d, X-Cache %q, want %s", resp.StatusCode, resp.Header.Get("X-Cache"), want)
		}
		var parent Result
		if err := json.Unmarshal(body, &parent); err != nil {
			t.Fatal(err)
		}
		id := parent.JobID
		if j, _ := s.Job(id); parentIsHit && j.prob != nil {
			t.Fatalf("hit parent %s holds a problem", id)
		}
		resp, body = postWhatIf(t, srv.URL, "", id, delta)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("what-if: status %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
		}
		if j, _ := s.Job(id); parentIsHit && j.prob != nil {
			t.Fatalf("hit parent %s kept the problem the what-if rebuilt", id)
		}
		return body
	}
	solved, hit := whatIf(false), whatIf(true)
	// The servers number their jobs alike but for the hit parent's extra
	// job, and time their solves apart.
	for k := range differingKeys(t, solved, hit) {
		if k != "job_id" && k != "elapsed_ms" {
			t.Errorf("what-if on a hit parent differs from one on the solved parent in %q:\n%s\nvs\n%s", k, hit, solved)
		}
	}
}

// TestReplayedHitBuildsNoProblem: a journaled submit whose fingerprint
// the replayed results answer is settled from the cache on reopen
// without building its problem; one they do not answer is rebuilt and
// solved.
func TestReplayedHitBuildsNoProblem(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.ndjson")
	cfg := Config{Workers: 1, JournalPath: journal}
	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	solved, err := submitSpec(t, s1, specVariant(5), ModeSolve)
	if err != nil {
		t.Fatal(err)
	}
	fp := wait(t, solved).Fingerprint
	other, err := specParse(specVariant(6))
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Two submits no result record answers, as a crash leaves them: one
	// of the solved problem, one of a problem never solved.
	log, _, err := wal.Open(journal, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []submitRecord{
		{ID: "j000100", Mode: ModeSolve, Fingerprint: fp, JobSource: JobSource{Spec: specVariant(5)}, TimeoutMS: 60_000},
		{ID: "j000101", Mode: ModeSolve, Fingerprint: spec.Fingerprint(other), JobSource: JobSource{Spec: specVariant(6)}, TimeoutMS: 60_000},
	} {
		if err := log.Append(recSubmit, rec); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()

	s2, err := OpenHeld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	hit, _ := s2.Job("j000100")
	if hit == nil || hit.State() != StateDone || hit.prob != nil {
		t.Fatalf("replayed repeat of a solved problem: registered %v, built %v; want done from the cache with no problem built",
			hit != nil, hit != nil && hit.prob != nil)
	}
	if res, _ := hit.Result(); !res.Cached {
		t.Errorf("replayed repeat was not answered from the cache: %+v", res)
	}
	miss, _ := s2.Job("j000101")
	if miss == nil || miss.State() != StateQueued || miss.prob == nil {
		t.Fatalf("replayed new problem: registered %v, built %v; want queued with its problem built",
			miss != nil, miss != nil && miss.prob != nil)
	}
	s2.StartWorkers()
	if res := wait(t, miss); res.Cached || res.Fingerprint != spec.Fingerprint(other) {
		t.Errorf("replayed new problem: %+v, want a solve under its own fingerprint", res)
	}
}
