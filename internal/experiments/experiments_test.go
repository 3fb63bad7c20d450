package experiments

import (
	"reflect"
	"strconv"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/sat"
)

// TestRowTotalsSumEveryCounter runs runRows over rows that each sum two
// solves' stats, as the scaling sweeps do, where every counter of every
// solve has its own value: the totals are the field-wise sum of all of
// them, so no counter of the record is dropped on the way to
// confsweep -json.
func TestRowTotalsSumEveryCounter(t *testing.T) {
	fields := reflect.VisibleFields(reflect.TypeOf(sat.Counters{}))
	solve := func(row, k int) (st core.ModelStats) {
		for j := range fields {
			reflect.ValueOf(&st.Counters).Elem().Field(j).SetInt(int64(1000*row + 100*k + j + 1))
		}
		return st
	}
	const rows = 3
	_, got, err := runRows(rows, func(i int) ([]string, sat.Counters, error) {
		var sum sat.Counters
		for k := range 2 {
			sum.Add(solve(i, k).Counters)
		}
		return nil, sum, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, f := range fields {
		var want int64
		for i := range rows {
			for k := range 2 {
				want += reflect.ValueOf(solve(i, k).Counters).Field(j).Int()
			}
		}
		if v := reflect.ValueOf(got).Field(j).Int(); v != want {
			t.Errorf("totals %s = %d, want the sum of the rows' %d", f.Name, v, want)
		}
	}
}

func TestNamesMatchRegistry(t *testing.T) {
	reg := All()
	names := Names()
	if len(reg) != len(names) {
		t.Fatalf("registry has %d entries, Names lists %d", len(reg), len(names))
	}
	for _, n := range names {
		if _, ok := reg[n]; !ok {
			t.Errorf("name %q missing from registry", n)
		}
	}
}

func TestTableVShape(t *testing.T) {
	res, err := TableV()
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "table5" {
		t.Errorf("name = %q", res.Name)
	}
	metrics := map[string]string{}
	for _, row := range res.Rows {
		if len(row) != 2 {
			t.Fatalf("row %v should have 2 columns", row)
		}
		metrics[row[0]] = row[1]
	}
	iso, err := strconv.ParseFloat(metrics["isolation"], 64)
	if err != nil || iso < 4.0 {
		t.Errorf("isolation %q should meet the 4.0 slider", metrics["isolation"])
	}
	cost, err := strconv.ParseInt(metrics["cost_K"], 10, 64)
	if err != nil || cost > 20 {
		t.Errorf("cost %q should be within $20K", metrics["cost_K"])
	}
	// Pattern percentages must sum to ~100.
	var sum float64
	for _, key := range []string{"pct_access_deny", "pct_trusted_comm", "pct_payload_inspection", "pct_proxy", "pct_no_isolation"} {
		v, err := strconv.ParseFloat(metrics[key], 64)
		if err != nil {
			t.Fatalf("metric %s: %v", key, err)
		}
		sum += v
	}
	if sum < 99.5 || sum > 100.5 {
		t.Errorf("pattern mix sums to %.2f, want 100", sum)
	}
}

func TestTableVIShape(t *testing.T) {
	res, err := TableVI()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	// Memory must grow monotonically with hosts in both scenarios.
	var prev [2]float64
	for i, row := range res.Rows {
		for col := 1; col <= 2; col++ {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatal(err)
			}
			if v < prev[col-1] {
				t.Errorf("row %d col %d: memory %v decreased from %v", i, col, v, prev[col-1])
			}
			prev[col-1] = v
		}
	}
}

// TestTableVIParallelSweepMatchesSequential runs the memory sweep with
// a 4-goroutine data-point pool and compares against the sequential
// run: Table VI's cells are structural (no wall-clock), so the rows
// must be identical.
func TestTableVIParallelSweepMatchesSequential(t *testing.T) {
	seq, err := TableVI()
	if err != nil {
		t.Fatal(err)
	}
	SetWorkers(4, 1)
	defer SetWorkers(1, 1)
	par, err := TableVI()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Rows, par.Rows) {
		t.Errorf("parallel sweep changed rows:\nseq: %v\npar: %v", seq.Rows, par.Rows)
	}
	if par.Totals != seq.Totals {
		t.Errorf("parallel sweep changed solver totals:\nseq: %+v\npar: %+v", seq.Totals, par.Totals)
	}
}

func TestFig5cShape(t *testing.T) {
	res, err := Fig5c()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if len(row) != 3 {
			t.Fatalf("row %v should have 3 columns", row)
		}
		// Column 2 must actually be the unsatisfiable series.
		if got := row[2]; len(got) < 6 || got[len(got)-5:] != "unsat" {
			t.Errorf("row %v: expected an unsat outcome in column 2", row)
		}
		if got := row[1]; len(got) < 4 || got[len(got)-3:] != "sat" {
			t.Errorf("row %v: expected a sat outcome in column 1", row)
		}
	}
}

func TestAblationFlowTheoryShape(t *testing.T) {
	res, err := AblationFlowTheory()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0][0] != "with_theory" || res.Rows[0][1] != "unsat" {
		t.Errorf("with_theory must prove unsat, got %v", res.Rows[0])
	}
	withConf, _ := strconv.ParseInt(res.Rows[0][3], 10, 64)
	withoutConf, _ := strconv.ParseInt(res.Rows[1][3], 10, 64)
	if withConf >= withoutConf {
		t.Errorf("theory should need far fewer conflicts: %d vs %d", withConf, withoutConf)
	}
}

func TestAblationRouteBoundShape(t *testing.T) {
	res, err := AblationRouteBound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	// Routes must be non-decreasing in the cap.
	var prev int64
	for _, row := range res.Rows {
		routes, err := strconv.ParseInt(row[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if routes < prev {
			t.Errorf("routes decreased: %v", res.Rows)
		}
		prev = routes
	}
}
