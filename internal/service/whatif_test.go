package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"configsynth/internal/faults"
	"configsynth/internal/spec"
)

func postWhatIf(t *testing.T, base, query string, parent string, delta string) (*http.Response, []byte) {
	t.Helper()
	body := fmt.Sprintf(`{"parent":%q,"delta":%s}`, parent, delta)
	resp, err := http.Post(base+"/v1/whatif"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 0, 4096)
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		data = append(data, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	return resp, data
}

// TestHTTPWhatIfSessionReuseAndCache walks the endpoint's happy path:
// the first delta against a parent starts a fresh session, the second
// reuses the warm one, and repeating a delta is answered by the
// ordinary fingerprint cache — a what-if result is indistinguishable
// from submitting the modified problem directly.
func TestHTTPWhatIfSessionReuseAndCache(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 1})
	parent, err := submitSpec(t, s, specVariant(0), ModeSolve)
	if err != nil {
		t.Fatal(err)
	}
	if res := wait(t, parent); res.Status != "sat" {
		t.Fatalf("parent: status %q", res.Status)
	}

	resp, data := postWhatIf(t, srv.URL, "", parent.ID, `{"isolation_tenths":50}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first delta: status %d: %s", resp.StatusCode, data)
	}
	var r1 Result
	if err := json.Unmarshal(data, &r1); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	if r1.Session != "fresh" || r1.Cached {
		t.Fatalf("first delta: session %q cached %v, want a fresh session miss", r1.Session, r1.Cached)
	}

	resp, data = postWhatIf(t, srv.URL, "", parent.ID, `{"isolation_tenths":60}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second delta: status %d: %s", resp.StatusCode, data)
	}
	var r2 Result
	if err := json.Unmarshal(data, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Session != "reused" {
		t.Fatalf("second delta: session %q, want reused", r2.Session)
	}

	// Same delta again: the fingerprint cache answers before any solver
	// (or session) is touched.
	resp, data = postWhatIf(t, srv.URL, "", parent.ID, `{"isolation_tenths":50}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat delta: status %d: %s", resp.StatusCode, data)
	}
	var r3 Result
	if err := json.Unmarshal(data, &r3); err != nil {
		t.Fatal(err)
	}
	if !r3.Cached || r3.Session != "" {
		t.Fatalf("repeat delta: cached %v session %q, want a pure cache hit", r3.Cached, r3.Session)
	}
	if r3.Fingerprint != r1.Fingerprint || r3.Status != r1.Status {
		t.Fatalf("cache hit diverged from the original what-if: %+v vs %+v", r3, r1)
	}

	st := s.Stats()
	if st.Sessions.Misses < 1 || st.Sessions.Hits < 1 || st.Sessions.Entries < 1 {
		t.Errorf("session stats: %+v, want at least one miss, one hit, one warm entry", st.Sessions)
	}
}

// TestWhatIfSearchShowsInStatsz: a what-if in solve mode is answered by
// the session's per-query extractor, which is dropped with the query.
// Its search must still reach the /statsz solver totals — on a fresh
// session and on a reused one — or a whole slider sweep reads as zero
// propagations.
func TestWhatIfSearchShowsInStatsz(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 1})
	parent, err := submitSpec(t, s, specVariant(0), ModeSolve)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, parent)

	propagations := func() int64 {
		t.Helper()
		resp, err := http.Get(srv.URL + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Solver.Propagations
	}
	before := propagations()
	for i, want := range []string{"fresh", "reused"} {
		resp, data := postWhatIf(t, srv.URL, "", parent.ID, fmt.Sprintf(`{"isolation_tenths":%d}`, 40+10*i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: status %d: %s", i, resp.StatusCode, data)
		}
		var r Result
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		if r.Session != want {
			t.Fatalf("delta %d: session %q, want %q", i, r.Session, want)
		}
		after := propagations()
		if after <= before {
			t.Fatalf("delta %d (%s session): /statsz solver.propagations stayed at %d across a what-if solve", i, want, before)
		}
		before = after
	}
}

func TestHTTPWhatIfRejections(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 1})
	parent, err := submitSpec(t, s, specVariant(1), ModeSolve)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, parent)

	cases := []struct {
		name, parent, delta string
		want                int
	}{
		{"unknown parent", "j999999", `{"isolation_tenths":50}`, http.StatusNotFound},
		{"empty delta", parent.ID, `{}`, http.StatusBadRequest},
		{"bogus drop link", parent.ID, `{"drop_links":[{"a":0,"b":0}]}`, http.StatusBadRequest},
		{"non-integer threshold", parent.ID, `{"isolation_tenths":"high"}`, http.StatusBadRequest},
		{"fractional budget", parent.ID, `{"cost_budget":2.5}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, data := postWhatIf(t, srv.URL, "", c.parent, c.delta)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.want, data)
		}
	}
}

// TestWhatIfFamilies: a threshold-only what-if takes its family from
// its parent, canonicalised once for the parent however many children
// ask, and lands on the parent family's session; a link delta is of
// another family, which it canonicalises itself, and gets a session of
// its own.
func TestWhatIfFamilies(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	parent, err := submitSpec(t, s, specVariant(3), ModeSolve)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, parent)
	family := spec.FamilyFingerprint(parent.prob)

	for i, c := range []struct{ delta, session string }{
		{`{"isolation_tenths":40}`, "fresh"},
		{`{"usability_tenths":40}`, "reused"},
		{`{"add_links":[{"a":0,"b":5}]}`, "fresh"},
	} {
		child, err := s.WhatIf(parent.ID, decodeDelta(t, c.delta), SubmitOptions{})
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		res := wait(t, child)
		if res.Session != c.session {
			t.Fatalf("delta %d %s: session %q, want %q", i, c.delta, res.Session, c.session)
		}
		want := family
		if i == 2 {
			if want = spec.FamilyFingerprint(child.prob); want == family {
				t.Fatal("the link delta stayed in its parent's family")
			}
		}
		// family(nil) would panic on a family it had to canonicalise now.
		if got := child.family(nil); got != want {
			t.Fatalf("delta %d %s: family %.12s, want %.12s", i, c.delta, got, want)
		}
	}
	if parent.fam != family {
		t.Fatalf("the parent memoised family %.12s, want %.12s", parent.fam, family)
	}
	if n := s.Stats().Sessions.Entries; n != 2 {
		t.Fatalf("%d warm sessions, want one per family (2)", n)
	}
}

// decodeDelta reads a delta from its wire form.
func decodeDelta(t *testing.T, text string) WhatIfDelta {
	t.Helper()
	var d WhatIfDelta
	if err := json.Unmarshal([]byte(text), &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWhatIfDegradedNeverCachedNorReplayed is the what-if face of the
// degraded-results invariant: a delta answered by the anytime fallback
// (deadline mid-descent under an injected solve delay) must not enter
// the fingerprint cache, must not be served to a re-submission, and
// after a crash its journaled record must not re-seed the cache as
// proven — only the parent's exact result survives the restart.
func TestWhatIfDegradedNeverCachedNorReplayed(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.ndjson")
	cfg := Config{Workers: 1, JournalPath: journal}
	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s1.Handler())

	parent, err := submitSpec(t, s1, specVariant(2), ModeSolve)
	if err != nil {
		t.Fatal(err)
	}
	pres := wait(t, parent)
	if pres.Status != "sat" {
		t.Fatalf("parent: status %q", pres.Status)
	}

	plan, err := faults.Parse("seed=5," + faults.SatSolveDelay + "=1:100ms")
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Set(plan)
	resp, data := postWhatIf(t, srv.URL, "?mode=max-isolation&timeout=350ms", parent.ID, `{"usability_tenths":20}`)
	if resp.StatusCode != http.StatusOK {
		restore()
		t.Fatalf("degraded what-if: status %d: %s", resp.StatusCode, data)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		restore()
		t.Fatal(err)
	}
	if !res.Degraded {
		restore()
		if res.Design != nil && res.Design.Exact {
			t.Skip("descent finished under the deadline; nothing to degrade")
		}
		t.Fatalf("deadline mid-descent produced a non-degraded what-if: %+v", res)
	}
	if res.Cached {
		restore()
		t.Fatal("degraded what-if result claims to be cached")
	}

	// A re-submission of the same delta must miss the cache: the
	// degraded answer was never stored.
	resp, data = postWhatIf(t, srv.URL, "?mode=max-isolation&timeout=350ms", parent.ID, `{"usability_tenths":20}`)
	restore()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-submitted what-if: status %d: %s", resp.StatusCode, data)
	}
	var res2 Result
	if err := json.Unmarshal(data, &res2); err != nil {
		t.Fatal(err)
	}
	if res2.Cached {
		t.Fatal("degraded what-if answer was served from the cache on re-submit")
	}

	// Crash and replay: the journal holds the parent's exact result and
	// the degraded what-if records. Only the former may re-seed the cache.
	srv.Close()
	s1.crash()
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// Replay may have re-enqueued what-if submissions whose result
	// records were lost; let them finish before inspecting the cache.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if ready, _ := s2.Ready(); ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service never became ready after replay")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := s2.cache.Get(cacheKey(pres.Fingerprint, ModeSolve)); !ok {
		t.Error("parent's proven result did not survive the restart")
	}
	if got, ok := s2.cache.Get(cacheKey(res.Fingerprint, ModeMaxIsolation)); ok && got.res.Degraded {
		t.Fatalf("degraded what-if result was replayed into the proven cache: %+v", got)
	}
}

// TestWhatIfAcrossLinkOrderMatchesColdServer: the session registry keys
// on the family fingerprint, which sorts links, so a what-if whose
// parent declares the family's links in another order lands on a
// session encoded for the first order. Its answer must still name the
// links of its own parent — byte for byte what a server that never saw
// the first order answers.
func TestWhatIfAcrossLinkOrderMatchesColdServer(t *testing.T) {
	lines := strings.Split(specVariant(2), "\n")
	var links []int
	for i, l := range lines {
		if strings.HasPrefix(l, "link ") {
			links = append(links, i)
		}
	}
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		lines[links[i]], lines[links[j]] = lines[links[j]], lines[links[i]]
	}
	relinked := strings.Join(lines, "\n")

	whatIf := func(s *Service, url, specText, wantSession string) Result {
		t.Helper()
		parent, err := submitSpec(t, s, specText, ModeSolve)
		if err != nil {
			t.Fatal(err)
		}
		wait(t, parent)
		resp, data := postWhatIf(t, url, "", parent.ID, `{"isolation_tenths":30}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("what-if: status %d: %s", resp.StatusCode, data)
		}
		var r Result
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, data)
		}
		if r.Status != "sat" || r.Session != wantSession {
			t.Fatalf("what-if: status %q session %q, want sat on a %s session", r.Status, r.Session, wantSession)
		}
		return r
	}

	warm, warmSrv := newTestServer(t, Config{Workers: 1})
	whatIf(warm, warmSrv.URL, specVariant(0), "fresh") // registers the family, first link order
	got := whatIf(warm, warmSrv.URL, relinked, "reused")

	cold, coldSrv := newTestServer(t, Config{Workers: 1})
	want := whatIf(cold, coldSrv.URL, relinked, "fresh")

	if got.Design == nil || len(got.Design.Placements) == 0 {
		t.Fatalf("the what-if places no device; the test would compare nothing: %+v", got.Design)
	}
	if got.Text != want.Text {
		t.Fatalf("what-if on a warm session of another link order differs from a cold server:\nwarm:\n%s\ncold:\n%s", got.Text, want.Text)
	}
}
