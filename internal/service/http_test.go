package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

func postSpec(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHTTPSynthesizeExampleAndCacheHit(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})

	resp, data := postSpec(t, srv.URL+"/v1/synthesize?example=1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	if res.Status != "sat" || res.Design == nil {
		t.Fatalf("result = %+v", res)
	}
	if res.Fingerprint == "" {
		t.Error("result missing fingerprint")
	}

	resp2, data2 := postSpec(t, srv.URL+"/v1/synthesize?example=1", "")
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("resubmission X-Cache = %q, want hit", got)
	}
	var res2 Result
	if err := json.Unmarshal(data2, &res2); err != nil {
		t.Fatal(err)
	}
	if !res2.Cached || res2.Design.Cost != res.Design.Cost {
		t.Errorf("cached result mismatch: cached=%v cost %v vs %v", res2.Cached, res2.Design.Cost, res.Design.Cost)
	}

	// /statsz must show the hit.
	sresp, sdata := getURL(t, srv.URL+"/statsz")
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("statsz status %d", sresp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(sdata, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits < 1 || st.JobsCompleted < 2 {
		t.Errorf("stats: hits=%d completed=%d", st.Cache.Hits, st.JobsCompleted)
	}
}

func TestHTTPSynthesizeSpecBody(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, data := postSpec(t, srv.URL+"/v1/synthesize", smallSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != "sat" {
		t.Errorf("status = %q", res.Status)
	}
	if !strings.Contains(res.Text, "synthesized security design") {
		t.Error("rendered design text missing")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, url, body string
	}{
		{"empty body", srv.URL + "/v1/synthesize", ""},
		{"garbage spec", srv.URL + "/v1/synthesize", "not a spec"},
		{"unknown mode", srv.URL + "/v1/synthesize?example=1&mode=frobnicate", ""},
		{"bad timeout", srv.URL + "/v1/synthesize?example=1&timeout=soon", ""},
		{"example with body", srv.URL + "/v1/synthesize?example=1", smallSpec},
	}
	for _, c := range cases {
		resp, data := postSpec(t, c.url, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, data)
		}
	}
}

func TestHTTPAsyncJobLifecycle(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, data := postSpec(t, srv.URL+"/v1/synthesize?async=1", smallSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202: %s", resp.StatusCode, data)
	}
	var acc struct {
		JobID string `json:"job_id"`
		Href  string `json:"href"`
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.JobID == "" || acc.Href != "/v1/jobs/"+acc.JobID {
		t.Fatalf("accepted payload: %s", data)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		jresp, jdata := getURL(t, srv.URL+acc.Href)
		if jresp.StatusCode != http.StatusOK {
			t.Fatalf("job status %d: %s", jresp.StatusCode, jdata)
		}
		var res Result
		if err := json.Unmarshal(jdata, &res); err != nil {
			t.Fatal(err)
		}
		if res.Status == "sat" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %s", jdata)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHTTPStreamEmitsBounds(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(srv.URL+"/v1/synthesize?mode=max-isolation&stream=1", "text/plain", strings.NewReader(smallSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("only %d events", len(events))
	}
	if events[0].Event != "queued" {
		t.Errorf("first event = %q", events[0].Event)
	}
	last := events[len(events)-1]
	if last.Event != "done" || last.Result == nil || last.Result.Status != "sat" {
		t.Errorf("last event: %+v", last)
	}
	sawBound := false
	for _, e := range events {
		if e.Event == "bound" {
			sawBound = true
			if e.Kind != "isolation" || e.Value < 0 || e.Value > 10 {
				t.Errorf("bound event: %+v", e)
			}
		}
	}
	if !sawBound {
		t.Error("stream carried no intermediate bound events")
	}
}

func TestHTTPDeadlineMapsTo504(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	p := hardProblemSpecText()
	resp, data := postSpec(t, srv.URL+"/v1/synthesize?mode=max-isolation&timeout=1ms", p)
	switch resp.StatusCode {
	case http.StatusGatewayTimeout:
		// Deadline fired before the base feasibility race proved an
		// incumbent: nothing to degrade to, so the timeout surfaces.
	case http.StatusOK:
		// The race beat the deadline far enough to leave an incumbent;
		// the service degrades to it instead of discarding the work.
		var res Result
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatalf("bad 200 body: %v", err)
		}
		if !res.Degraded || res.DegradedReason != "deadline" {
			t.Fatalf("200 under an expired deadline must be a degraded anytime answer, got degraded=%v reason=%q",
				res.Degraded, res.DegradedReason)
		}
		if res.Design == nil || res.Design.Exact {
			t.Fatalf("degraded answer must carry an inexact design: %+v", res.Design)
		}
	default:
		t.Fatalf("status %d, want 504 or degraded 200: %s", resp.StatusCode, data)
	}
	// The worker must still be serviceable afterwards.
	resp2, data2 := postSpec(t, srv.URL+"/v1/synthesize", smallSpec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("worker wedged after deadline: %d %s", resp2.StatusCode, data2)
	}
}

// TestHTTPReadyzLifecycle: /readyz reports 200 while serving and flips
// to 503 once shutdown drain begins, while /healthz (liveness) stays
// 200 throughout.
func TestHTTPReadyzLifecycle(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 1})

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	if code, body := get("/readyz"); code != http.StatusOK || body["ready"] != true {
		t.Fatalf("/readyz while serving: %d %v", code, body)
	}
	s.beginShutdown()
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body["reason"] != "draining" {
		t.Fatalf("/readyz while draining: %d %v", code, body)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: %d", resp.StatusCode)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Fill the worker and the single queue slot with slow jobs.
	b1, err := s.Submit(hardProblem(t), SubmitOptions{Mode: ModeMaxIsolation, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for b1.State() == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	b2, err := s.Submit(hardProblem(t), SubmitOptions{Mode: ModeMaxIsolation, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postSpec(t, srv.URL+"/v1/synthesize", smallSpec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	b1.Cancel()
	b2.Cancel()
}

func TestHTTPHealthAndUnknownJob(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, data := getURL(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(data)) != "ok" {
		t.Errorf("healthz: %d %q", resp.StatusCode, data)
	}
	resp, _ = getURL(t, srv.URL+"/v1/jobs/j999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

func TestHTTPVerifyExample(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, data := postSpec(t, srv.URL+"/v1/verify?example=1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var vr verifyResponse
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.OK {
		t.Errorf("paper example design failed verification: %v", vr.Violations)
	}
	if vr.Design == nil {
		t.Error("verify response missing the synthesized design")
	}

	// Round-trip: feed the returned design back explicitly.
	req, _ := json.Marshal(verifyRequest{Problem: smallSpec})
	resp2, data2 := postSpec(t, srv.URL+"/v1/verify", string(req))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("spec verify status %d: %s", resp2.StatusCode, data2)
	}
	var vr2 verifyResponse
	if err := json.Unmarshal(data2, &vr2); err != nil {
		t.Fatal(err)
	}
	if !vr2.OK {
		t.Errorf("small spec design failed verification: %v", vr2.Violations)
	}
}

// TestHTTPVerifyReportsInnerJobDeadline: /v1/verify without a design
// runs a synthesis job, and that job's deadline must answer as it does
// on /v1/synthesize (504), not as a server fault. The 1ns deadline is
// over before a worker picks the job up.
func TestHTTPVerifyReportsInnerJobDeadline(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, data := postSpec(t, srv.URL+"/v1/verify?example=1&timeout=1ns", "")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, data)
	}
}

func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// hardProblemSpecText renders a spec-format instance whose exact
// max-isolation descent outlives any millisecond deadline: a dense
// two-tier network with many mutually communicating host pairs.
func hardProblemSpecText() string {
	var b strings.Builder
	const hosts, routers = 14, 6
	b.WriteString("devices 3\norder 1 2 2\norder 2 3 2\ncosts 5 8 6\n")
	fmt.Fprintf(&b, "nodes %d %d\n", hosts, routers)
	for h := 1; h <= hosts; h++ {
		fmt.Fprintf(&b, "link %d %d\n", h, hosts+1+(h%routers))
	}
	for r := 0; r < routers; r++ {
		fmt.Fprintf(&b, "link %d %d\n", hosts+1+r, hosts+1+(r+1)%routers)
	}
	b.WriteString("services 2\n")
	for h := 1; h+3 <= hosts; h += 2 {
		fmt.Fprintf(&b, "require %d %d\n", h, h+3)
	}
	b.WriteString("sliders 6 6 100\n")
	return b.String()
}
