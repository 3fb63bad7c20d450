package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"configsynth/internal/experiments"
)

func TestList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig3a", "fig5c", "table6", "ablation_flowtheory"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "nope"}, &out); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestMissingFlag(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Fatal("missing -exp must error")
	}
}

func TestRunTable5(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "table5"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "# table5") {
		t.Errorf("missing header:\n%s", got)
	}
	if !strings.Contains(got, "isolation") || !strings.Contains(got, "cost_K") {
		t.Errorf("missing rows:\n%s", got)
	}
}

// TestRunJSONReport runs an experiment with workers and the JSON report
// enabled, and checks the BENCH file records the configuration, rows,
// and solver effort.
func TestRunJSONReport(t *testing.T) {
	defer experiments.SetWorkers(1, 1)
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-exp", "table5", "-workers", "2", "-json", "-outdir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_table5.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.Name != "table5" {
		t.Errorf("name = %q", report.Name)
	}
	if report.SweepWorkers != 2 || report.SolverWorkers != 2 {
		t.Errorf("workers = %d/%d, want 2/2", report.SweepWorkers, report.SolverWorkers)
	}
	if report.ElapsedMS <= 0 {
		t.Errorf("elapsed_ms = %v", report.ElapsedMS)
	}
	if len(report.Rows) == 0 || len(report.Header) == 0 {
		t.Errorf("report missing data: %+v", report)
	}
	if report.Solver.Decisions == 0 && report.Solver.Propagations == 0 {
		t.Errorf("report shows no solver effort: %+v", report.Solver)
	}
}

// TestRunVerifyFlag runs an experiment with the solver self-checks
// armed: every model and unsat core behind the table is re-validated,
// and a failed check would panic the run.
func TestRunVerifyFlag(t *testing.T) {
	t.Setenv("CONFSYNTH_VERIFY", "") // restore the env after the run flips it
	var out strings.Builder
	if err := run([]string{"-exp", "table5", "-verify"}, &out); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("CONFSYNTH_VERIFY") != "1" {
		t.Fatal("-verify must set CONFSYNTH_VERIFY=1 for the experiment processes")
	}
	if !strings.Contains(out.String(), "# table5") {
		t.Errorf("missing header:\n%s", out.String())
	}
}

// TestJSONReportSolverIsTheCounterRecord writes a report whose totals
// give every counter its own value: each field of sat.Counters is a key
// of the report's solver object, under the field's own name, with its
// value. A counter added to the record reaches the report with no edit
// here or in experiments.
func TestJSONReportSolverIsTheCounterRecord(t *testing.T) {
	res := experiments.Result{Name: "counters"}
	fields := reflect.VisibleFields(reflect.TypeOf(res.Totals))
	for i := range fields {
		reflect.ValueOf(&res.Totals).Elem().Field(i).SetInt(int64(i + 1))
	}
	dir := t.TempDir()
	if err := writeBench(dir, res, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_counters.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Solver map[string]int64 `json:"solver"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	for i, f := range fields {
		if got, ok := report.Solver[f.Name]; !ok || got != int64(i+1) {
			t.Errorf("solver.%s = %d (present %v), want %d", f.Name, got, ok, i+1)
		}
	}
}
