package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"configsynth/internal/spec"
)

// wantHitBody is what the parent's writeJobResult sent for a hit of e
// under id: hitOf(stored) with the job's id, through writeJSON.
func wantHitBody(e *cached, id string) []byte {
	want := hitOf(e)
	want.JobID = id
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, want)
	return rec.Body.Bytes()
}

// differingKeys lists the top-level fields two JSON objects disagree on.
func differingKeys(t *testing.T, a, b []byte) map[string]bool {
	t.Helper()
	var ma, mb map[string]any
	if err := json.Unmarshal(a, &ma); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, a)
	}
	if err := json.Unmarshal(b, &mb); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, b)
	}
	diff := map[string]bool{}
	for k, v := range ma {
		if w, ok := mb[k]; !ok || !reflect.DeepEqual(v, w) {
			diff[k] = true
		}
	}
	for k := range mb {
		if _, ok := ma[k]; !ok {
			diff[k] = true
		}
	}
	return diff
}

// TestHitBodyIsTheEncodersBytes: for every result shape the cache can
// hold, the spliced hit response is byte for byte what writeJSON renders
// for hitOf(stored) under the serving job's id — on POST /v1/synthesize
// and on GET /v1/jobs/{id} of the hit job — says its exact length, and
// differs from the miss it repeats in job_id and cached only.
func TestHitBodyIsTheEncodersBytes(t *testing.T) {
	cases := []struct {
		name, nodeID, query, spec string
		whatif                    string // a delta of spec's job; the hit is the re-served what-if result
		fields                    []string
	}{
		{name: "sat design", spec: smallSpec, fields: []string{`"design"`, `"text"`}},
		{name: "unsat with conflict", spec: unsatSpec, fields: []string{`"conflict"`}},
		{name: "max-isolation optimum", query: "mode=max-isolation", spec: smallSpec, fields: []string{`"objective"`}},
		{name: "max-usability optimum", query: "mode=max-usability", spec: smallSpec, fields: []string{`"objective"`}},
		{name: "min-cost optimum", query: "mode=min-cost", spec: smallSpec, fields: []string{`"objective"`}},
		{name: "decomp", query: "mode=decomp", spec: twinSpec, fields: []string{`"decomp"`, `"regions"`}},
		{name: "what-if re-served by synthesize", spec: specVariant(0), whatif: `{"cost_budget":33}`},
		{name: "node-prefixed job id", nodeID: "n2", spec: smallSpec},
		{name: "job id the encoder escapes", nodeID: `n<2>&"é`, spec: smallSpec},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, srv := newTestServer(t, Config{Workers: 1, NodeID: tc.nodeID})
			endpoint := srv.URL + "/v1/synthesize?" + tc.query
			resp, miss := postSpec(t, endpoint, tc.spec)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
				t.Fatalf("first request: status %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), miss)
			}
			hitSpec := tc.spec
			if tc.whatif != "" {
				var parent Result
				if err := json.Unmarshal(miss, &parent); err != nil {
					t.Fatal(err)
				}
				resp, miss = postWhatIf(t, srv.URL, "", parent.JobID, tc.whatif)
				if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
					t.Fatalf("what-if: status %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), miss)
				}
				hitSpec = specVariant(3)
			}

			resp, hit := postSpec(t, endpoint, hitSpec)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
				t.Fatalf("repeat: status %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), hit)
			}
			if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(hit)) {
				t.Errorf("Content-Length = %q for a body of %d bytes", got, len(hit))
			}
			if got := resp.Header.Get("Content-Type"); got != "application/json" {
				t.Errorf("Content-Type = %q", got)
			}
			var res Result
			if err := json.Unmarshal(hit, &res); err != nil {
				t.Fatalf("hit body is not JSON: %v\n%s", err, hit)
			}
			if !strings.HasPrefix(res.JobID, s.idPrefix()) || res.JobID == s.idPrefix() {
				t.Fatalf("hit job id %q lost its node prefix %q", res.JobID, s.idPrefix())
			}
			e, ok := s.cache.Get(cacheKey(res.Fingerprint, res.Mode))
			if !ok {
				t.Fatal("no cache entry behind the hit")
			}
			want := wantHitBody(e, res.JobID)
			if !bytes.Equal(hit, want) {
				t.Fatalf("hit body is not the encoder's\n got: %s\nwant: %s", hit, want)
			}
			for _, f := range tc.fields {
				if !bytes.Contains(hit, []byte(f)) {
					t.Errorf("hit body lacks %s: the case does not cover the shape it names", f)
				}
			}

			_, polled := getURL(t, srv.URL+"/v1/jobs/"+url.PathEscape(res.JobID))
			if !bytes.Equal(polled, want) {
				t.Errorf("GET /v1/jobs/{id} of the hit job differs from its response\n got: %s\nwant: %s", polled, want)
			}

			allowed := map[string]bool{"job_id": true, "cached": true}
			if tc.whatif != "" {
				allowed["session"] = true // the miss went out on /v1/whatif, which names its session
			}
			for k := range differingKeys(t, miss, hit) {
				if !allowed[k] {
					t.Errorf("hit and miss differ in %q", k)
				}
			}
		})
	}
}

// TestFirstHitRendersOnce: sixteen clients hit a fresh entry at once.
// The entry renders once — every hit job holds the same bytes — and the
// responses are identical but for the job id.
func TestFirstHitRendersOnce(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 1})
	if resp, body := postSpec(t, srv.URL+"/v1/synthesize", smallSpec); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	const clients = 16
	bodies := make([][]byte, clients)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < clients; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			resp, err := http.Post(srv.URL+"/v1/synthesize", "text/plain", strings.NewReader(smallSpec))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.Header.Get("X-Cache") != "hit" {
				t.Errorf("client %d: X-Cache %q", i, resp.Header.Get("X-Cache"))
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	start.Done()
	done.Wait()

	var tail []byte
	ids := map[string]bool{}
	for i, body := range bodies {
		var res Result
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("client %d: %v\n%s", i, err, body)
		}
		if ids[res.JobID] {
			t.Errorf("job id %s served twice", res.JobID)
		}
		ids[res.JobID] = true
		j, ok := s.Job(res.JobID)
		if !ok {
			t.Fatalf("hit job %s is not registered", res.JobID)
		}
		jres, _ := j.Result()
		_, jt := jres.hit.body()
		if tail == nil {
			tail = jt
		}
		if &jt[0] != &tail[0] {
			t.Errorf("client %d was served from a second rendering", i)
		}
		if want := wantHitBody(jres.hit, res.JobID); !bytes.Equal(body, want) {
			t.Errorf("client %d: body is not the encoder's", i)
		}
	}
}

// TestEvictionDropsRenderedBody: rendered bytes belong to one entry. A
// key that is evicted and solved again, or overwritten by seed (a cluster
// handoff), renders afresh from the result now stored.
func TestEvictionDropsRenderedBody(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 1, CacheEntries: 1})
	post := func(text, xcache string) Result {
		t.Helper()
		resp, body := postSpec(t, srv.URL+"/v1/synthesize", text)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != xcache {
			t.Fatalf("status %d, X-Cache %q, want %s: %s", resp.StatusCode, resp.Header.Get("X-Cache"), xcache, body)
		}
		var res Result
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if xcache == "hit" {
			e, _ := s.cache.Get(cacheKey(res.Fingerprint, res.Mode))
			if want := wantHitBody(e, res.JobID); !bytes.Equal(body, want) {
				t.Fatalf("hit body is not the stored result's\n got: %s\nwant: %s", body, want)
			}
		}
		return res
	}
	post(specVariant(0), "miss")
	first := post(specVariant(0), "hit")
	old, _ := s.cache.Get(cacheKey(first.Fingerprint, first.Mode))

	post(specVariant(1), "miss") // one entry: evicts variant 0
	post(specVariant(0), "miss")
	post(specVariant(0), "hit")
	if e, _ := s.cache.Get(cacheKey(first.Fingerprint, first.Mode)); e == old {
		t.Fatal("the re-solved key kept its evicted entry")
	}

	// A handoff overwrites the key with the peer's result: the next hit
	// is that result, not the bytes rendered a moment ago.
	shipped := *old.res
	shipped.ElapsedMS = 12345.5
	s.CacheSeed(first.Fingerprint, first.Mode, &shipped)
	if got := post(specVariant(0), "hit"); got.ElapsedMS != shipped.ElapsedMS {
		t.Errorf("hit after a re-seed has elapsed_ms %v, want the seeded %v", got.ElapsedMS, shipped.ElapsedMS)
	}
}

// TestHitAllocBudget: answering a hit from a warm entry allocates a
// handful of small values (headers, the quoted id), never the body.
func TestHitAllocBudget(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	wait(t, mustSubmit(t, s, smallProblem(t), SubmitOptions{}))
	job := mustSubmit(t, s, smallProblem(t), SubmitOptions{})
	res := wait(t, job)
	if res.hit == nil {
		t.Fatal("resubmission was not a hit")
	}
	head, tail := res.hit.body()
	size := len(head) + len(tail)

	// A result forty times the size, to show that nothing allocated per
	// hit grows with the body.
	big := *res.hit.res
	big.Text = strings.Repeat(big.Text, 40)
	bigJob := newJob("j-big", ModeSolve, nil, big.Fingerprint)
	s.answer(bigJob, hitOf(&cached{res: &big}), nil)
	bigRes, _ := bigJob.Result()
	head, tail = bigRes.hit.body()
	bigSize := len(head) + len(tail)

	rec := httptest.NewRecorder()
	rec.Body.Grow(bigSize + 64)
	header := rec.Header()
	serve := func(j *Job) func() {
		return func() {
			clear(header)
			rec.Body.Reset()
			*rec = httptest.ResponseRecorder{HeaderMap: header, Body: rec.Body}
			writeJobResult(rec, j)
		}
	}
	allocs := testing.AllocsPerRun(200, serve(job))
	if rec.Body.Len() < size || rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("recorder holds %d bytes, X-Cache %q", rec.Body.Len(), rec.Header().Get("X-Cache"))
	}
	if allocs > 8 && !raceEnabled {
		t.Errorf("writeJobResult on a warm entry: %.0f allocations, want at most 8", allocs)
	}
	small, large := bytesPerRun(100, serve(job)), bytesPerRun(100, serve(bigJob))
	if rec.Body.Len() < bigSize || large > small+64 {
		t.Errorf("a %d-byte hit allocates %d bytes, a %d-byte one %d: allocation grows with the body",
			size, small, rec.Body.Len(), large)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestOversizeBodyIs413 is the regression test for the silently
// truncated request: a spec with 4 MiB of comment lines before its last
// require used to parse without it and be answered, 200, as a different
// problem. Every body-reading endpoint refuses an oversize body instead,
// whether or not it declares its length.
func TestOversizeBodyIs413(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	last := strings.LastIndex(smallSpec, "require 2 4")
	padded := smallSpec[:last] + strings.Repeat("# "+strings.Repeat("x", 1021)+"\n", maxBodyBytes>>10) + smallSpec[last:]

	resp, body := postSpec(t, srv.URL+"/v1/synthesize", smallSpec)
	var res Result
	if err := json.Unmarshal(body, &res); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("unpadded spec: status %d: %s", resp.StatusCode, body)
	}
	p, _ := specParse(smallSpec)
	if res.Fingerprint != spec.Fingerprint(p) {
		t.Errorf("unpadded spec answered as %s, want its own fingerprint %s", res.Fingerprint, spec.Fingerprint(p))
	}

	post := func(path string, body io.Reader, declared int64, limit int) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		srv.Config.Handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), strconv.Itoa(limit)) {
			t.Errorf("POST %s declaring %d bytes: status %d %s, want 413 naming the %d-byte limit",
				path, declared, rec.Code, rec.Body, limit)
		}
	}
	for _, path := range []string{"/v1/synthesize", "/v1/whatif", "/v1/verify"} {
		post(path, strings.NewReader(padded), int64(len(padded)), maxBodyBytes)
		post(path, strings.NewReader(padded), -1, maxBodyBytes) // chunked: no length to refuse it by
	}
	// The batch limit is 64 MiB: declare one byte more and send none of it.
	post("/v1/batch", http.NoBody, maxBatchBodyBytes+1, maxBatchBodyBytes)
}

// TestSynthesizeConsultsRouter: POST /v1/synthesize reads, parses and
// fingerprints a request once and hands the router that fingerprint and
// the body. A router that declines leaves the request to run here under
// the fingerprint it was shown; one that answers is the whole answer:
// no job is registered and the handler writes nothing more.
func TestSynthesizeConsultsRouter(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	var (
		calls      int
		routedFP   string
		routedBody string
		answer     bool
	)
	s.SetRouter(func(w http.ResponseWriter, r *http.Request, body []byte, fp string) bool {
		calls++
		routedFP, routedBody = fp, string(body)
		if answer {
			w.WriteHeader(http.StatusTeapot)
			io.WriteString(w, "served elsewhere")
		}
		return answer
	})
	post := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/synthesize", strings.NewReader(smallSpec))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}

	rec := post()
	var res Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("declined route: status %d: %s", rec.Code, rec.Body)
	}
	if calls != 1 || routedFP != res.Fingerprint || routedBody != smallSpec {
		t.Errorf("router called %d times with fingerprint %s (result carries %s), body intact %v",
			calls, routedFP, res.Fingerprint, routedBody == smallSpec)
	}

	answer = true
	jobs := len(s.JobIDs())
	rec = post()
	if calls != 2 || rec.Code != http.StatusTeapot || rec.Body.String() != "served elsewhere" || len(s.JobIDs()) != jobs {
		t.Errorf("answered route: %d calls, status %d %q, %d jobs registered (was %d); want the router's answer alone and no job",
			calls, rec.Code, rec.Body, len(s.JobIDs()), jobs)
	}
}
