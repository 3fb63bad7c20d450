package service

import (
	"encoding/json"
	"reflect"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/sat"
)

// statszSolverKeys pins the keys of /statsz's solver object. A client
// may read any of them, so each stays, with its value; a change to the
// counter record may only add keys.
var statszSolverKeys = []string{
	"Flows", "HostPairs", "Routes", "Vars", "Clauses", "PBConstraints", "PBTerms",
	"Conflicts", "Decisions", "Propagations", "Restarts", "LubyRestarts", "GeomRestarts",
	"Interrupts", "RandomDecisions", "Subsumed", "Strengthened", "Reduced", "EstimatedBytes",
}

// TestStatszSolverIsTheCounterRecord gives every field of the fleet
// totals its own value and reads them back from /statsz: each pinned key
// and each field of sat.Counters is a key of the solver object, with the
// value of the field of its name. A counter added to the record reaches
// /statsz with no edit here or in core.
func TestStatszSolverIsTheCounterRecord(t *testing.T) {
	s, srv := newTestServer(t, Config{})
	var totals core.ModelStats
	v := reflect.ValueOf(&totals).Elem()
	for i, f := range reflect.VisibleFields(v.Type()) {
		if !f.Anonymous {
			v.FieldByIndex(f.Index).SetInt(int64(i + 1))
		}
	}
	s.mu.Lock()
	s.totals = totals
	s.mu.Unlock()
	_, data := getURL(t, srv.URL+"/statsz")
	var body struct {
		Solver map[string]int64 `json:"solver"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	keys := append([]string(nil), statszSolverKeys...)
	for _, f := range reflect.VisibleFields(reflect.TypeOf(sat.Counters{})) {
		keys = append(keys, f.Name)
	}
	for _, k := range keys {
		field := v.FieldByName(k)
		if !field.IsValid() {
			t.Errorf("core.ModelStats has no field %s", k)
			continue
		}
		got, ok := body.Solver[k]
		if want := field.Int(); !ok || got != want {
			t.Errorf("/statsz solver.%s = %d (present %v), want %d", k, got, ok, want)
		}
	}
}
