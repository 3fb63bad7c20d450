// Command confload load-tests a confserved instance: N concurrent
// clients replay a fixed-seed pool of synthesis problems and the tool
// reports latency percentiles, retry counts, and the cache hit rate.
//
// Usage:
//
//	confload [-addr http://host:8732] [-clients 8] [-requests 200]
//	         [-problems 10] [-mode solve] [-json report.json]
//	         [-whatif 0] [-allow-errors]
//	         [-targets http://h1:8732,http://h2:8732,http://h3:8732]
//
// With -addr empty an in-process confserved is started on a loopback
// port, so the benchmark is self-contained.
//
// With -targets, the sweep is spread over a cluster: each client pins
// one of the listed endpoints (like clients behind a load balancer)
// and the report's cache/completion deltas are summed across every
// node's /statsz.
//
// With -whatif N, after the load phase one parent problem is solved
// asynchronously and N threshold deltas are posted to /v1/whatif
// against it, measuring the warm-session slider-sweep path: the report
// gains delta latencies and how many deltas reused a warm session.
//
// Backpressure (429) and transient unavailability (503) are retried
// with capped exponential backoff plus full jitter, honoring the
// server's Retry-After header as the floor; retries are reported
// separately from errors so a throttled-but-successful run reads as
// exactly that.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"configsynth/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "confload:", err)
		os.Exit(1)
	}
}

// report is the benchmark summary (also the -json payload).
type report struct {
	Addr       string  `json:"addr"`
	Clients    int     `json:"clients"`
	Requests   int     `json:"requests"`
	Problems   int     `json:"problems"`
	Mode       string  `json:"mode"`
	Errors     int     `json:"errors"`
	Retries    int64   `json:"retries"`
	ElapsedSec float64 `json:"elapsed_sec"`
	Throughput float64 `json:"requests_per_sec"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	P99MS      float64 `json:"p99_ms"`
	MaxMS      float64 `json:"max_ms"`

	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	JobsCompleted int64   `json:"jobs_completed"`

	// PerEndpointErrors counts transport failures (connection refused,
	// reset) per -targets endpoint. A dead endpoint is skipped and the
	// request retried elsewhere, so these are visibility, not fatalities.
	PerEndpointErrors map[string]int `json:"per_endpoint_errors,omitempty"`

	// What-if sweep phase (-whatif N), zero-valued when disabled.
	WhatIfRequests int     `json:"whatif_requests,omitempty"`
	WhatIfReused   int     `json:"whatif_reused,omitempty"`
	WhatIfCached   int     `json:"whatif_cached,omitempty"`
	WhatIfP50MS    float64 `json:"whatif_p50_ms,omitempty"`
	WhatIfMaxMS    float64 `json:"whatif_max_ms,omitempty"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("confload", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "", "confserved base URL (empty: start one in-process)")
		targets  = fs.String("targets", "", "comma-separated confserved base URLs; each client sticks to one (cluster benchmarking; overrides -addr)")
		clients  = fs.Int("clients", 8, "concurrent clients")
		requests = fs.Int("requests", 200, "total requests across all clients")
		problems = fs.Int("problems", 10, "distinct problems in the fixed-seed pool")
		mode     = fs.String("mode", "solve", "query mode (solve|max-isolation|max-usability|min-cost)")
		timeout  = fs.Duration("timeout", 2*time.Minute, "per-request deadline")
		jsonOut  = fs.String("json", "", "write the report as JSON to this file")
		workers  = fs.Int("workers", 2, "in-process server: synthesis workers")
		whatif   = fs.Int("whatif", 0, "after the load phase, post this many threshold deltas to /v1/whatif against one parent job (0 disables)")
		poolHost = fs.Int("pool-hosts", 0, "base host count for pool problems (0: historical 4..6-host shapes); larger networks make each cold solve dominate the request cost")
		allowErr = fs.Bool("allow-errors", false, "count request failures instead of failing the run (chaos testing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clients < 1 || *requests < 1 || *problems < 1 {
		return fmt.Errorf("clients, requests, and problems must be positive")
	}

	base := *addr
	if base == "" && *targets == "" {
		svc := service.New(service.Config{Workers: *workers, QueueDepth: *requests + *clients})
		defer svc.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: svc.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(stdout, "in-process confserved on %s\n", base)
	}
	// The target list models a load balancer's client view of a
	// cluster: each client pins one endpoint (real clients do not
	// rotate per request), and the cluster's fingerprint routing —
	// not client luck — is what concentrates repeat problems on the
	// node that has them cached.
	bases := []string{base}
	if *targets != "" {
		bases = bases[:0]
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimRight(strings.TrimSpace(t), "/"); t != "" {
				bases = append(bases, t)
			}
		}
		if len(bases) == 0 {
			return fmt.Errorf("-targets has no usable URLs")
		}
		base = bases[0]
	}

	// The problem pool is deterministic: problem i is the same spec text
	// on every run, so repeated picks hit the server's canonical cache.
	pool := make([]string, *problems)
	for i := range pool {
		pool[i] = problemSpecSized(i, *poolHost)
	}

	statsBefore, err := fetchStatsAll(bases, stdout)
	if err != nil {
		return fmt.Errorf("statsz: %w (is confserved running?)", err)
	}
	lat := make([]float64, *requests)
	errs := make([]error, *requests)
	var next, failures int64
	var mu sync.Mutex
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= int64(*requests) {
			return -1
		}
		n := next
		next++
		return int(n)
	}

	start := time.Now()
	var retries int64
	epErrs := &endpointErrors{counts: map[string]int{}}
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(clientIdx int) {
			defer wg.Done()
			// Per-client seeded RNG: jitter differs across clients (so
			// they do not retry in lockstep) but replays identically run
			// to run.
			rng := rand.New(rand.NewSource(int64(clientIdx) + 1))
			// The client pins its endpoint but keeps the rest as an
			// ordered failover list: a connection refused rotates to the
			// next target instead of failing the run.
			urls := make([]string, len(bases))
			for k := range bases {
				urls[k] = fmt.Sprintf("%s/v1/synthesize?mode=%s&timeout=%s",
					bases[(clientIdx+k)%len(bases)], *mode, timeout.String())
			}
			for {
				i := take()
				if i < 0 {
					return
				}
				body := pool[i%len(pool)]
				t0 := time.Now()
				tries, err := post(rng, urls, body, epErrs)
				lat[i] = float64(time.Since(t0).Microseconds()) / 1000
				mu.Lock()
				retries += int64(tries)
				if err != nil {
					errs[i] = err
					failures++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	statsAfter, err := fetchStatsAll(bases, stdout)
	if err != nil {
		return err
	}
	hits := statsAfter.Cache.Hits - statsBefore.Cache.Hits
	misses := statsAfter.Cache.Misses - statsBefore.Cache.Misses

	sort.Float64s(lat)
	rep := report{
		Addr:          base,
		Clients:       *clients,
		Requests:      *requests,
		Problems:      *problems,
		Mode:          *mode,
		Errors:        int(failures),
		Retries:       retries,
		ElapsedSec:    elapsed.Seconds(),
		Throughput:    float64(*requests) / elapsed.Seconds(),
		P50MS:         percentile(lat, 50),
		P95MS:         percentile(lat, 95),
		P99MS:         percentile(lat, 99),
		MaxMS:         lat[len(lat)-1],
		CacheHits:     hits,
		CacheMisses:   misses,
		JobsCompleted: statsAfter.JobsCompleted - statsBefore.JobsCompleted,
	}
	if hits+misses > 0 {
		rep.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	rep.PerEndpointErrors = epErrs.snapshot()

	fmt.Fprintf(stdout, "%d requests, %d clients, %d problems, mode %s\n",
		rep.Requests, rep.Clients, rep.Problems, rep.Mode)
	fmt.Fprintf(stdout, "elapsed %.2fs (%.1f req/s), errors %d, retries %d\n",
		rep.ElapsedSec, rep.Throughput, rep.Errors, rep.Retries)
	fmt.Fprintf(stdout, "latency ms: p50=%.2f p95=%.2f p99=%.2f max=%.2f\n", rep.P50MS, rep.P95MS, rep.P99MS, rep.MaxMS)
	fmt.Fprintf(stdout, "cache: %d hits / %d misses (hit rate %.1f%%)\n", hits, misses, rep.CacheHitRate*100)
	for _, ep := range sortedKeys(rep.PerEndpointErrors) {
		fmt.Fprintf(stdout, "endpoint %s: %d transport errors (skipped and retried elsewhere)\n",
			ep, rep.PerEndpointErrors[ep])
	}
	if failures > 0 {
		if !*allowErr {
			for i, e := range errs {
				if e != nil {
					return fmt.Errorf("request %d (and %d more): %w", i, failures-1, e)
				}
			}
		}
		for i, e := range errs {
			if e != nil {
				fmt.Fprintf(stdout, "tolerated %d failures (first: request %d: %v)\n", failures, i, e)
				break
			}
		}
	}
	if *whatif > 0 {
		if err := runWhatIfSweep(base, *timeout, *whatif, &rep, stdout); err != nil {
			if !*allowErr {
				return fmt.Errorf("whatif sweep: %w", err)
			}
			fmt.Fprintf(stdout, "tolerated whatif sweep failure: %v\n", err)
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", *jsonOut)
	}
	return nil
}

// runWhatIfSweep drives the incremental what-if path: solve one parent
// problem asynchronously, wait for it, then post n threshold deltas to
// /v1/whatif sequentially (warm sessions are exclusively owned per job,
// so a sequential sweep is the maximal-reuse pattern a slider UI
// produces). Results land in rep's WhatIf fields.
func runWhatIfSweep(base string, timeout time.Duration, n int, rep *report, stdout io.Writer) error {
	// Parent solve: async submit, then poll the job to completion.
	resp, err := http.Post(
		fmt.Sprintf("%s/v1/synthesize?async=1&timeout=%s", base, timeout),
		"text/plain", strings.NewReader(problemSpec(0)))
	if err != nil {
		return err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("parent submit: status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var accepted struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(data, &accepted); err != nil || accepted.JobID == "" {
		return fmt.Errorf("parent submit: bad response %q", strings.TrimSpace(string(data)))
	}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + accepted.JobID)
		if err != nil {
			return err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("parent job: status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		}
		var st struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return err
		}
		if st.Status == "sat" || st.Status == "unsat" {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("parent job %s still %q after %s", accepted.JobID, st.Status, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}

	url := fmt.Sprintf("%s/v1/whatif?timeout=%s", base, timeout)
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		// Distinct isolation targets for n <= 100, so the sweep measures
		// the session path rather than pure fingerprint-cache hits.
		iso := (i * 97) % 100
		body := fmt.Sprintf(`{"parent":%q,"delta":{"isolation_tenths":%d}}`, accepted.JobID, iso)
		t0 := time.Now()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		lat = append(lat, float64(time.Since(t0).Microseconds())/1000)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("delta %d: status %d: %s", i, resp.StatusCode, strings.TrimSpace(string(data)))
		}
		var res struct {
			Status  string `json:"status"`
			Session string `json:"session"`
			Cached  bool   `json:"cached"`
		}
		if err := json.Unmarshal(data, &res); err != nil {
			return err
		}
		if res.Status != "sat" && res.Status != "unsat" {
			return fmt.Errorf("delta %d: unexpected status %q", i, res.Status)
		}
		rep.WhatIfRequests++
		if res.Session == "reused" {
			rep.WhatIfReused++
		}
		if res.Cached {
			rep.WhatIfCached++
		}
	}
	sort.Float64s(lat)
	rep.WhatIfP50MS = percentile(lat, 50)
	rep.WhatIfMaxMS = lat[len(lat)-1]
	fmt.Fprintf(stdout, "whatif: %d deltas on job parent, %d reused warm sessions, %d cache hits, p50=%.2fms max=%.2fms\n",
		rep.WhatIfRequests, rep.WhatIfReused, rep.WhatIfCached, rep.WhatIfP50MS, rep.WhatIfMaxMS)
	return nil
}

// Retry policy for backpressure responses.
const (
	maxAttempts = 8
	baseBackoff = 50 * time.Millisecond
	maxBackoff  = 2 * time.Second
)

// backoffDelay computes the sleep before retry number attempt (0-based):
// the server's Retry-After floor plus full jitter over an exponentially
// growing, capped window. Full jitter (rather than equal jitter) spreads
// the retry herd across the whole window, which matters when every
// client got the same 429 at the same instant.
func backoffDelay(rng *rand.Rand, attempt int, retryAfter time.Duration) time.Duration {
	window := baseBackoff << attempt
	if window > maxBackoff {
		window = maxBackoff
	}
	return retryAfter + time.Duration(rng.Int63n(int64(window)))
}

// retryAfterHint parses a Retry-After header (delta-seconds form; the
// HTTP-date form is not used by confserved) into the backoff floor.
func retryAfterHint(resp *http.Response) time.Duration {
	raw := resp.Header.Get("Retry-After")
	if raw == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(raw))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// endpointErrors counts transport failures per endpoint across all
// clients, for the per-endpoint section of the summary.
type endpointErrors struct {
	mu     sync.Mutex
	counts map[string]int
}

func (e *endpointErrors) bump(url string) {
	// Strip the query so counts key on the endpoint, not the request.
	if i := strings.IndexByte(url, '?'); i >= 0 {
		url = url[:i]
	}
	url = strings.TrimSuffix(url, "/v1/synthesize")
	e.mu.Lock()
	e.counts[url]++
	e.mu.Unlock()
}

func (e *endpointErrors) snapshot() map[string]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.counts) == 0 {
		return nil
	}
	out := make(map[string]int, len(e.counts))
	for k, v := range e.counts {
		out[k] = v
	}
	return out
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// post submits one request, retrying 429/503 backpressure with jittered
// backoff against the same endpoint and rotating to the next endpoint in
// urls on a transport failure (connection refused, reset): one dead
// cluster node costs the affected requests a retry, not the whole run.
// It returns how many retries were spent alongside the final outcome.
func post(rng *rand.Rand, urls []string, body string, epErrs *endpointErrors) (retries int, err error) {
	idx := 0
	for attempt := 0; ; attempt++ {
		url := urls[idx%len(urls)]
		resp, err := http.Post(url, "text/plain", strings.NewReader(body))
		if err != nil {
			epErrs.bump(url)
			if attempt+1 >= maxAttempts {
				return attempt, fmt.Errorf("after %d attempts: %w", attempt+1, err)
			}
			idx++
			time.Sleep(backoffDelay(rng, attempt, 0))
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			var res struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal(data, &res); err != nil {
				return attempt, err
			}
			if res.Status != "sat" {
				return attempt, fmt.Errorf("unexpected status %q", res.Status)
			}
			return attempt, nil
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			if attempt+1 >= maxAttempts {
				return attempt, fmt.Errorf("status %d after %d attempts: %s",
					resp.StatusCode, attempt+1, strings.TrimSpace(string(data)))
			}
			time.Sleep(backoffDelay(rng, attempt, retryAfterHint(resp)))
		default:
			return attempt, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		}
	}
}

func fetchStats(base string) (*service.Stats, error) {
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("statsz status %d", resp.StatusCode)
	}
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// fetchStatsAll sums the counters the report derives deltas from across
// every target, so cache-hit and completion accounting stays correct
// when the sweep is spread over a cluster. An unreachable endpoint is
// skipped (its counters just drop out of the deltas — fine for chaos
// runs where nodes die mid-benchmark); only all endpoints dead is an
// error.
func fetchStatsAll(bases []string, stdout io.Writer) (*service.Stats, error) {
	var agg service.Stats
	reached := 0
	var lastErr error
	for _, b := range bases {
		st, err := fetchStats(b)
		if err != nil {
			lastErr = fmt.Errorf("%s: %w", b, err)
			fmt.Fprintf(stdout, "statsz unreachable at %s (skipped): %v\n", b, err)
			continue
		}
		reached++
		agg.JobsCompleted += st.JobsCompleted
		agg.JobsFailed += st.JobsFailed
		agg.Cache.Hits += st.Cache.Hits
		agg.Cache.Misses += st.Cache.Misses
		agg.PeerFillHits += st.PeerFillHits
		agg.JobsStolenCompleted += st.JobsStolenCompleted
	}
	if reached == 0 {
		return nil, lastErr
	}
	return &agg, nil
}

// percentile reads the p-th percentile from sorted latencies.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p + 99) / 100
	if i > 0 {
		i--
	}
	return sorted[i]
}

// problemSpec renders the i-th pool problem: a small two-tier network
// whose shape (host count, demands, sliders) varies deterministically
// with i, so run N always replays the same workload. The shape cycle
// has period 12; the cost budget shifts every cycle so larger pools
// (cache-miss-heavy cluster benchmarks) keep producing distinct
// fingerprints while the first twelve problems stay bit-identical to
// historical runs.
func problemSpec(i int) string { return problemSpecSized(i, 0) }

// problemSpecSized is problemSpec with an overridable base host count:
// baseHosts 0 keeps the historical 4..6-host shapes, anything larger
// grows the network so a cold solve costs real CPU relative to the
// HTTP round trip (what a cluster cache benchmark needs).
func problemSpecSized(i, baseHosts int) string {
	hosts := 4 + i%3 // 4..6 hosts
	if baseHosts > 0 {
		hosts = baseHosts + i%3
	}
	routers := 2
	var b strings.Builder
	b.WriteString("devices 3\norder 1 2 2\norder 2 3 2\ncosts 5 8 6\n")
	fmt.Fprintf(&b, "nodes %d %d\n", hosts, routers)
	for h := 1; h <= hosts; h++ {
		fmt.Fprintf(&b, "link %d %d\n", h, hosts+1+h%routers)
	}
	fmt.Fprintf(&b, "link %d %d\n", hosts+1, hosts+2)
	b.WriteString("services 1\n")
	fmt.Fprintf(&b, "require 1 %d\n", 2+i%(hosts-1))
	if hosts > 4 {
		fmt.Fprintf(&b, "require 2 %d\n", hosts)
	}
	fmt.Fprintf(&b, "sliders %d.5 %d %d\n", 1+i%3, 3+i%4, 40+i/12)
	return b.String()
}
