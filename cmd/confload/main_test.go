package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"configsynth/internal/service"
)

func TestProblemSpecsParseAndAreDeterministic(t *testing.T) {
	for i := 0; i < 12; i++ {
		if problemSpec(i) != problemSpec(i) {
			t.Fatalf("problem %d is not deterministic", i)
		}
		if problemSpec(i) == problemSpec(i+1) && i%3 == (i+1)%3 && i%4 == (i+1)%4 {
			continue // identical shape parameters are allowed to collide
		}
	}
}

// loadRun runs confload with the given arguments and returns its JSON
// report.
func loadRun(t *testing.T, args ...string) report {
	t.Helper()
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	var out strings.Builder
	if err := run(append(args, "-json", jsonPath), &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestLoadRunInProcess(t *testing.T) {
	rep := loadRun(t, "-clients", "4", "-requests", "40", "-problems", "5")
	if rep.Errors != 0 {
		t.Errorf("errors = %d", rep.Errors)
	}
	if rep.Requests != 40 || rep.P50MS <= 0 || rep.P99MS < rep.P50MS {
		t.Errorf("report: %+v", rep)
	}
	if rep.CacheHits+rep.CacheMisses != 40 {
		t.Errorf("cache hits %d + misses %d, want 40 lookups", rep.CacheHits, rep.CacheMisses)
	}
}

// TestLoadRunServesRepeatsFromCache holds the cache to 5 distinct
// problems over 40 concurrent requests costing at most 5 misses. Each
// problem is posted once, sequentially, before the concurrent phase:
// from a cold cache the count depends on timing (two clients with the
// same problem in flight both miss, since a second request is not
// coalesced with a running solve), which made the single-phase form of
// this check fail a third of its runs on two cores.
func TestLoadRunServesRepeatsFromCache(t *testing.T) {
	svc := service.New(service.Config{Workers: 2, QueueDepth: 64})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	warm := loadRun(t, "-addr", srv.URL, "-clients", "1", "-requests", "5", "-problems", "5")
	if warm.Errors != 0 || warm.CacheMisses != 5 {
		t.Fatalf("warm-up: errors %d, misses %d, want 0 and 5", warm.Errors, warm.CacheMisses)
	}
	rep := loadRun(t, "-addr", srv.URL, "-clients", "4", "-requests", "40", "-problems", "5")
	if rep.Errors != 0 {
		t.Errorf("errors = %d", rep.Errors)
	}
	// 5 distinct problems over 40 requests: at least 35 must be hits.
	if rep.CacheHits < 35 {
		t.Errorf("cache hits = %d, want >= 35 (5 problems, 40 requests)", rep.CacheHits)
	}
	if rep.CacheHitRate < 0.8 {
		t.Errorf("hit rate = %.2f", rep.CacheHitRate)
	}
}

func TestBackoffDelayCappedAndFloored(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for attempt := 0; attempt < 20; attempt++ {
		d := backoffDelay(rng, attempt, 0)
		if d < 0 || d >= maxBackoff {
			t.Fatalf("attempt %d: delay %v outside [0, %v)", attempt, d, maxBackoff)
		}
	}
	// Retry-After is a floor under the jitter, not a replacement for it.
	const floor = 3 * time.Second
	for i := 0; i < 20; i++ {
		if d := backoffDelay(rng, 0, floor); d < floor || d >= floor+maxBackoff {
			t.Fatalf("delay %v outside [%v, %v)", d, floor, floor+maxBackoff)
		}
	}
}

func TestRetryAfterHint(t *testing.T) {
	mk := func(v string) *http.Response {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	cases := []struct {
		raw  string
		want time.Duration
	}{
		{"", 0}, {"2", 2 * time.Second}, {" 1 ", time.Second},
		{"-3", 0}, {"soon", 0},
	}
	for _, c := range cases {
		if got := retryAfterHint(mk(c.raw)); got != c.want {
			t.Errorf("retryAfterHint(%q) = %v, want %v", c.raw, got, c.want)
		}
	}
}

// TestPostRetries429 drives post against a server that throttles the
// first two attempts: the request must succeed with exactly two
// retries reported, and the Retry-After floor must be honored.
func TestPostRetries429(t *testing.T) {
	var calls atomic.Int64
	var afterFloor atomic.Int64
	var last atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		now := time.Now().UnixNano()
		if prev := last.Swap(now); prev != 0 && time.Duration(now-prev) >= time.Second {
			afterFloor.Add(1)
		}
		if n <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, `{"status":"sat"}`)
	}))
	defer srv.Close()

	rng := rand.New(rand.NewSource(7))
	epErrs := &endpointErrors{counts: map[string]int{}}
	retries, err := post(rng, []string{srv.URL}, "body", epErrs)
	if err != nil {
		t.Fatal(err)
	}
	if retries != 2 {
		t.Errorf("retries = %d, want 2", retries)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3", calls.Load())
	}
	if afterFloor.Load() != 2 {
		t.Errorf("only %d retries waited out the 1s Retry-After floor, want 2", afterFloor.Load())
	}
}

// TestPostGivesUpAfterMaxAttempts: a permanently throttling server must
// not hold a client forever.
func TestPostGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	rng := rand.New(rand.NewSource(7))
	epErrs := &endpointErrors{counts: map[string]int{}}
	retries, err := post(rng, []string{srv.URL}, "body", epErrs)
	if err == nil {
		t.Fatal("post succeeded against a permanent 503")
	}
	if calls.Load() != maxAttempts {
		t.Errorf("server saw %d calls, want %d", calls.Load(), maxAttempts)
	}
	if retries != maxAttempts-1 {
		t.Errorf("retries = %d, want %d", retries, maxAttempts-1)
	}
}

// TestPostFailsOverOnConnectionRefused points post at a dead endpoint
// first and a live one second: the request must succeed by rotating to
// the live endpoint, and the dead one must show up in the per-endpoint
// error counts.
func TestPostFailsOverOnConnectionRefused(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // free the port: connections are now refused

	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"sat"}`)
	}))
	defer live.Close()

	rng := rand.New(rand.NewSource(7))
	epErrs := &endpointErrors{counts: map[string]int{}}
	retries, err := post(rng, []string{deadURL + "/v1/synthesize?x=1", live.URL + "/v1/synthesize?x=1"}, "body", epErrs)
	if err != nil {
		t.Fatal(err)
	}
	if retries != 1 {
		t.Errorf("retries = %d, want 1 (one failover hop)", retries)
	}
	counts := epErrs.snapshot()
	if counts[deadURL] != 1 {
		t.Errorf("per-endpoint errors = %v, want %q -> 1", counts, deadURL)
	}
	if _, ok := counts[live.URL]; ok {
		t.Errorf("live endpoint charged with an error: %v", counts)
	}
}

func TestPercentile(t *testing.T) {
	lat := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(lat, 50); p != 5 {
		t.Errorf("p50 = %v, want 5", p)
	}
	if p := percentile(lat, 99); p != 10 {
		t.Errorf("p99 = %v, want 10", p)
	}
	if p := percentile(nil, 50); p != 0 {
		t.Errorf("empty p50 = %v", p)
	}
}
