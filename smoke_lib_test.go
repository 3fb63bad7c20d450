package configsynth_test

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"configsynth/internal/service"
	"configsynth/internal/spec"
)

// Tests of scripts/lib.sh, the helper every smoke script sources: its
// load pool and its load client, driven against in-process servers.

// libSh runs script in bash with scripts/lib.sh sourced, under the
// smokes' shell options, and returns its standard output.
func libSh(t *testing.T, script string) string {
	t.Helper()
	for _, tool := range []string{"bash", "curl"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("scripts/lib.sh needs %s", tool)
		}
	}
	cmd := exec.Command("bash", "-c", "set -euo pipefail; source scripts/lib.sh; "+script)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s: %v\n%s", script, err, stderr.String())
	}
	return string(out)
}

// loadFailures runs lib.sh's load and returns the failure count it
// prints.
func loadFailures(t *testing.T, args string) string {
	t.Helper()
	return strings.TrimSpace(libSh(t, "load "+args))
}

// TestSmokePoolSpecs: pool_spec renders the load pool the smokes have
// always posted, byte for byte (the digest is of problems 0-23 as the Go
// load driver the helper replaced rendered them), so fingerprints and
// cache behaviour match earlier runs. Every problem is a valid spec with
// its own fingerprint.
func TestSmokePoolSpecs(t *testing.T) {
	const n = 24
	var all strings.Builder
	seen := map[string]int{}
	for i := 0; i < n; i++ {
		text := libSh(t, fmt.Sprintf("pool_spec %d", i))
		all.WriteString(text)
		sp, err := spec.Scan(text)
		if err != nil {
			t.Fatalf("pool_spec %d: %v\n%s", i, err, text)
		}
		fp := sp.Fingerprint()
		if j, dup := seen[fp]; dup {
			t.Errorf("pool_spec %d and %d share a fingerprint", j, i)
		}
		seen[fp] = i
	}
	const want = "c59695df00794d90b5191f5037b3df1b01bb1c4f02fd34c3e7fe325ce5dab2d8"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(all.String()))); got != want {
		t.Errorf("pool_spec 0-%d digest %s, want %s", n-1, got, want)
	}
}

// TestSmokeLoadRunsClean: three clients post 24 requests over 6 problems
// to a real service with no failures, one cache lookup per request: a
// miss for each problem's first request and a hit for every repeat.
// Client c sends requests c, c+3, ..., so each problem belongs to one
// client and no two requests for it overlap.
func TestSmokeLoadRunsClean(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	if got := loadFailures(t, "3 24 6 solve "+srv.URL); got != "0" {
		t.Fatalf("load printed %q failures, want 0", got)
	}
	if st := svc.Stats(); st.Cache.Hits != 18 || st.Cache.Misses != 6 {
		t.Errorf("cache counted %d hits and %d misses, want 18 and 6", st.Cache.Hits, st.Cache.Misses)
	}
}

// TestSmokeLoadServesRepeatsFromCache: once one client has posted each
// of 6 problems, four concurrent clients posting 24 requests over the
// same problems are all answered from the cache.
func TestSmokeLoadServesRepeatsFromCache(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	if got := loadFailures(t, "1 6 6 solve "+srv.URL); got != "0" {
		t.Fatalf("warm-up printed %q failures, want 0", got)
	}
	if st := svc.Stats(); st.Cache.Hits != 0 || st.Cache.Misses != 6 {
		t.Fatalf("warm-up counted %d hits and %d misses, want 0 and 6", st.Cache.Hits, st.Cache.Misses)
	}
	if got := loadFailures(t, "4 24 6 solve "+srv.URL); got != "0" {
		t.Fatalf("load printed %q failures, want 0", got)
	}
	if st := svc.Stats(); st.Cache.Hits != 24 || st.Cache.Misses != 6 {
		t.Errorf("cache counted %d hits and %d misses in all, want 24 and 6", st.Cache.Hits, st.Cache.Misses)
	}
}

// TestSmokeRetryAfterHint: retry_after reads the whole seconds of a
// Retry-After header from a curl header dump, in any case and with CRLF
// line ends, and reads an absent, negative or non-numeric one as 0.
func TestSmokeRetryAfterHint(t *testing.T) {
	cases := []struct{ header, want string }{
		{"", "0"},
		{"Retry-After: 2", "2"},
		{"Retry-After:  1 ", "1"},
		{"retry-after: 4", "4"},
		{"Retry-After: 08", "08"},
		{"Retry-After: -3", "0"},
		{"Retry-After: soon", "0"},
	}
	dir := t.TempDir()
	for i, c := range cases {
		path := filepath.Join(dir, fmt.Sprintf("hdrs.%d", i))
		dump := "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\n"
		if c.header != "" {
			dump += c.header + "\r\n"
		}
		if err := os.WriteFile(path, []byte(dump+"\r\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSpace(libSh(t, "retry_after "+path)); got != c.want {
			t.Errorf("retry_after of %q = %q, want %q", c.header, got, c.want)
		}
	}
}

// TestSmokeBackoffCappedAndFloored: backoff_ms draws each delay below a
// window that starts at 50 ms, doubles per attempt and stops at 2 s, and
// Retry-After is a floor under that jitter, not a replacement for it. A
// zero-padded Retry-After is read in decimal.
func TestSmokeBackoffCappedAndFloored(t *testing.T) {
	rands := []int{0, 1, 49, 50, 1999, 2000, 12345, 32767}
	var script strings.Builder
	for _, after := range []string{"0", "3", "08"} {
		for attempt := 0; attempt < 20; attempt++ {
			for _, r := range rands {
				fmt.Fprintf(&script, "backoff_ms %d %s %d; ", attempt, after, r)
			}
		}
	}
	got := strings.Fields(libSh(t, script.String()))
	if want := 3 * 20 * len(rands); len(got) != want {
		t.Fatalf("backoff_ms printed %d delays, want %d", len(got), want)
	}
	i := 0
	for _, floor := range []int{0, 3000, 8000} {
		for attempt := 0; attempt < 20; attempt++ {
			window := min(50<<attempt, 2000)
			for _, r := range rands {
				ms, err := strconv.Atoi(got[i])
				i++
				if err != nil {
					t.Fatal(err)
				}
				if ms < floor || ms >= floor+window {
					t.Errorf("attempt %d, floor %d ms, rand %d: delay %d ms outside [%d, %d)",
						attempt, floor, r, ms, floor, floor+window)
				}
			}
		}
	}
	if maxDelay := strings.TrimSpace(libSh(t, "backoff_ms 7 0 1999")); maxDelay != "1999" {
		t.Errorf("backoff_ms 7 0 1999 = %s, want 1999: the capped window spans the full 2 s", maxDelay)
	}
}

// TestSmokeLoadBacksOffOnBackpressure: a 429 and a 503 are retried on
// the same target, the 429's retry no sooner than its Retry-After, and
// the request then succeeds.
func TestSmokeLoadBacksOffOnBackpressure(t *testing.T) {
	var mu sync.Mutex
	var at []time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		at = append(at, time.Now())
		n := len(at)
		mu.Unlock()
		switch n {
		case 1:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case 2:
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			fmt.Fprint(w, `{"status": "sat"}`)
		}
	}))
	defer srv.Close()

	if got := loadFailures(t, "1 1 1 solve "+srv.URL); got != "0" {
		t.Fatalf("load printed %q failures, want 0", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(at) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(at))
	}
	if gap := at[1].Sub(at[0]); gap < time.Second {
		t.Errorf("retried %v after a 429 with Retry-After: 1", gap)
	}
}

// TestSmokeLoadFailsOverToNextTarget: a refused connection and a 500
// each move a request on to the next target, and every request starts
// again at its client's own target.
func TestSmokeLoadFailsOverToNextTarget(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connections to its port are refused from here on

	var broken, live atomic.Int64
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		broken.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer failing.Close()
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		live.Add(1)
		fmt.Fprint(w, `{"status": "sat"}`)
	}))
	defer ok.Close()

	if got := loadFailures(t, fmt.Sprintf("1 2 2 solve %s %s %s", deadURL, failing.URL, ok.URL)); got != "0" {
		t.Fatalf("load printed %q failures, want 0", got)
	}
	if broken.Load() != 2 || live.Load() != 2 {
		t.Errorf("the failing and live targets saw %d and %d requests, want 2 and 2", broken.Load(), live.Load())
	}
}

// TestSmokeLoadCountsFailures: a request gives up after eight attempts
// at a target that only answers 503, and a 200 that is not a sat design
// or a 4xx fails at once.
func TestSmokeLoadCountsFailures(t *testing.T) {
	var throttled atomic.Int64
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		throttled.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer busy.Close()
	if got := loadFailures(t, "1 1 1 solve "+busy.URL); got != "1" {
		t.Fatalf("load printed %q failures against a permanent 503, want 1", got)
	}
	if throttled.Load() != 8 {
		t.Errorf("server saw %d attempts, want 8", throttled.Load())
	}

	var answered atomic.Int64
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if answered.Add(1) == 1 {
			fmt.Fprint(w, `{"status": "unsat"}`)
			return
		}
		http.Error(w, "bad spec", http.StatusBadRequest)
	}))
	defer refusing.Close()
	if got := loadFailures(t, "1 2 2 solve "+refusing.URL); got != "2" {
		t.Fatalf("load printed %q failures for an unsat answer and a 400, want 2", got)
	}
	if answered.Load() != 2 {
		t.Errorf("server saw %d attempts, want 2: neither failure is retried", answered.Load())
	}
}
