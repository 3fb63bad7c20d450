package service

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
)

// TestOneShotJobsStayOutOfSessionRegistry: an ordinary job's engine
// spends its template on the job's one question and is dropped with it.
// It never enters the what-if session registry, in any mode; only a
// what-if job checks a session in.
func TestOneShotJobsStayOutOfSessionRegistry(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 1})
	var parent *Job
	for i, mode := range []Mode{ModeSolve, ModeMinCost, ModeMaxIsolation, ModeMaxUsability} {
		j, err := submitSpec(t, s, specVariant(i), mode)
		if err != nil {
			t.Fatal(err)
		}
		if res := wait(t, j); res.Session != "" {
			t.Fatalf("%s job: session %q, want none", mode, res.Session)
		}
		if parent == nil {
			parent = j
		}
	}
	if st := s.Stats().Sessions; st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("ordinary jobs touched the session registry: %+v", st)
	}

	resp, data := postWhatIf(t, srv.URL, "", parent.ID, `{"isolation_tenths":40}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("what-if: status %d: %s", resp.StatusCode, data)
	}
	if st := s.Stats().Sessions; st.Entries != 1 {
		t.Fatalf("a what-if miss left %d sessions in the registry, want 1: %+v", st.Entries, st)
	}
}

// TestWhatIfMissChecksInAReusedSession: a what-if miss builds a session
// that keeps its template, and checks it in; the next delta is answered
// on it as "reused", with the answer a cold server gives for that delta
// in the same mode.
func TestWhatIfMissChecksInAReusedSession(t *testing.T) {
	deltas := func(s *Service, url string, want []string) map[string]any {
		t.Helper()
		parent, err := submitSpec(t, s, specVariant(0), ModeSolve)
		if err != nil {
			t.Fatal(err)
		}
		wait(t, parent)
		var last map[string]any
		for i, delta := range []string{`{"isolation_tenths":40}`, `{"isolation_tenths":50}`}[2-len(want):] {
			resp, data := postWhatIf(t, url, "?mode=min-cost", parent.ID, delta)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("delta %s: status %d: %s", delta, resp.StatusCode, data)
			}
			if err := json.Unmarshal(data, &last); err != nil {
				t.Fatalf("bad JSON: %v\n%s", err, data)
			}
			if last["session"] != want[i] || last["status"] != "sat" {
				t.Fatalf("delta %s: status %v on a %v session, want sat on a %s one", delta, last["status"], last["session"], want[i])
			}
		}
		for _, key := range []string{"job_id", "elapsed_ms", "session"} {
			delete(last, key)
		}
		return last
	}
	warm, warmSrv := newTestServer(t, Config{Workers: 1})
	got := deltas(warm, warmSrv.URL, []string{"fresh", "reused"})
	cold, coldSrv := newTestServer(t, Config{Workers: 1})
	want := deltas(cold, coldSrv.URL, []string{"fresh"})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("a reused session answers\n%v\na cold server\n%v", got, want)
	}
}
