package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"configsynth/internal/spec"
)

func TestTailPicksHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		used float64
	}{
		{1000, 99, 99}, // exactly 10 samples beyond p99
		{999, 99, 95},  // 9 beyond p99: step down
		{200, 99, 95},
		{200, 95, 95},
		{199, 95, 90},
		{40, 99, 75},
		{20, 95, 50},
		{5, 95, 50}, // nothing is supported: the median is still the least misleading
	} {
		samples := make([]float64, tc.n)
		for i := range samples {
			samples[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(1)).Shuffle(tc.n, func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		v, used := tail(samples, tc.want)
		if used != tc.used {
			t.Errorf("n=%d want p%v: settled on p%v, expected p%v", tc.n, tc.want, used, tc.used)
		}
		if beyond := tc.n - int(v); used != 50 && beyond < minBeyond {
			t.Errorf("n=%d: p%v = %v leaves %d samples beyond", tc.n, used, v, beyond)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, Name: "a", StartUS: 10, EndUS: 30},
		{ID: 3, Parent: 1, Name: "b", StartUS: 20, EndUS: 50},  // overlaps a: 30..50 is new
		{ID: 4, Parent: 1, Name: "c", StartUS: 90, EndUS: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "d", StartUS: 25, EndUS: 35},  // grandchild: b's business
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("span %d: self time %v, want %v", id, self[id], want)
		}
	}
	if by := selfByName(spans); by["op"] != 50 || by["b"] != 20 {
		t.Errorf("selfByName = %v", by)
	}

	var off *tracer
	off.timed("x", 0, 1, func() {})
	if off.start("x", 0, 1) != 0 || off.snapshot() != nil {
		t.Error("a nil tracer must record nothing")
	}
	tr := newTracer()
	tr.timed("outer", 0, 7, func() { tr.timed("inner", 1, 7, func() {}) })
	if got := tr.snapshot(); len(got) != 2 || got[1].Parent != 1 || got[0].EndUS < got[1].EndUS {
		t.Errorf("recorded spans = %+v", got)
	}
}

func TestSpecGeneratorIsDeterministic(t *testing.T) {
	sp := specParams{GenSeed: 42, Hosts: 12, Routers: 5, Services: 2, IsoTenths: 30, UsaTenths: 50, CostBudget: 48}
	a, b := sp.generate().render(nil), sp.generate().render(nil)
	if a != b {
		t.Fatal("same parameters gave different bytes")
	}
	shuffled := sp.generate().render(rand.New(rand.NewSource(9)))
	if shuffled == a {
		t.Fatal("permuting lines left the bytes unchanged")
	}
	if again := sp.generate().render(rand.New(rand.NewSource(9))); again != shuffled {
		t.Fatal("same permutation seed gave different bytes")
	}
	fp := func(text string) string {
		p, err := spec.Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("generated spec does not parse: %v\n%s", err, text)
		}
		return spec.Fingerprint(p)
	}
	if fp(a) != fp(shuffled) {
		t.Fatal("permuted lines changed the fingerprint")
	}
	other := sp
	other.GenSeed++
	if fp(other.generate().render(nil)) == fp(a) {
		t.Fatal("a different generator seed gave the same problem")
	}
}

func TestManifestsCoverTheReferenceCounts(t *testing.T) {
	need := map[string]int{"cold_solve": refColdOps, "optimise": refOptimiseOps, "hit_path": 32, "cluster_durable": refClusterSpecs}
	for _, w := range workloads {
		m, err := loadManifest("../workloads", w.name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Rule == "" || m.Built.GoVersion == "" {
			t.Errorf("%s: manifest records no selection rule or build environment", w.name)
		}
		if n := need[w.name]; len(m.Instances) < n {
			t.Errorf("%s: %d instances, the reference run needs %d", w.name, len(m.Instances), n)
		}
		for _, in := range m.Instances {
			if in.Status != "sat" && in.Status != "unsat" || in.Why == "" {
				t.Errorf("%s: instance %+v lacks a status or a reason", w.name, in.Spec)
			}
		}
		switch w.name {
		case "whatif_sweep":
			if len(m.Parents) < 2 {
				t.Fatalf("whatif_sweep: %d parents, want one per client", len(m.Parents))
			}
			for _, p := range m.Parents {
				if len(p.Statuses) != whatifSweeps || len(p.Statuses[0]) != 13 {
					t.Errorf("whatif parent %+v: statuses are not %d sweeps of 13 points", p.Spec, whatifSweeps)
				}
			}
		case "campus_batch":
			if m.Campus == nil || len(m.Campus.Edits) < refCampusEdits {
				t.Fatalf("campus_batch: too few vetted edits")
			}
		}
	}
	if _, err := loadManifest("../workloads", "no_such_workload"); err == nil {
		t.Error("loading a missing manifest succeeded")
	}
}

// The tables in metrics.go and workloads.go are what the program
// reports; BENCHMARK.json is what the driver expects. They must agree.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []decl                       `json:"end_to_end"`
		PerLayer  []decl                       `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(e2eDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(e2eDefs))
	}
	for i, d := range e2eDefs {
		if got := b.EndToEnd[i]; got != (decl{d.name, d.unit, d.better, regressionBound}) {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the program", i, got, d)
		}
	}
	if len(b.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(layerDefs))
	}
	for i, d := range layerDefs {
		if got := b.PerLayer[i]; got != (decl{Name: d.name, Unit: d.unit, Better: d.better}) {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %s/%s/%s in the program", i, got, d.name, d.unit, d.better)
		}
	}
}

// TestSmokeEveryWorkload runs each workload at about 1/50 of the
// reference scale, one traced round: every code path of the run, the
// checker and the layer probes, in seconds.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		r, err := execute(runConfig{
			workload: w.name, seed: 3, seconds: referenceSeconds / 50.0, trace: true, rounds: 1,
			workloads: "../workloads", outDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		res := summarize(r)
		if res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s: %d attempted, %d failed: %v", w.name, res.Attempted, res.Failed, res.Failures)
		}
		for _, d := range layerDefs {
			if _, ok := res.Metrics[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, d.name)
			}
		}
		e2e, _ := r.endToEnd()
		for _, d := range e2eDefs {
			if e2e[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", w.name, d.name, e2e[d.name].Value)
			}
		}
		if len(r.tr.snapshot()) == 0 {
			t.Errorf("%s: traced round recorded no spans", w.name)
		}
	}

	// The untraced run repeats its set-up on its own for setup_s.
	r, err := execute(runConfig{
		workload: "cluster_durable", seed: 3, seconds: referenceSeconds / 50.0, rounds: 1,
		workloads: "../workloads", outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.setups) < 2 || len(r.rounds) != 1 {
		t.Errorf("untraced run: %d set-up samples over %d round(s), want repetitions", len(r.setups), len(r.rounds))
	}
	if res := summarize(r); res.Failed != 0 || res.Metrics["setup_s"].Value <= 0 {
		t.Errorf("untraced run: %d failed, setup_s = %v", res.Failed, res.Metrics["setup_s"].Value)
	}
}
