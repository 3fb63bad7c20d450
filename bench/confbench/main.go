// Command confbench is the repository's benchmark ledger: six named
// workloads driven by closed-loop clients against the system started in
// this process, every answer checked outside the solver, end-to-end
// metrics from an untraced run and per-layer metrics from a traced one.
//
//	confbench -seed 1                         all workloads, untraced then traced; writes bench/out/results.json
//	confbench --workload W --seed N --seconds S --trace 0|1
//	                                          one workload run; the last line of output is the result object
//	confbench -check                          two untraced sets, compared against the bounds
//	confbench -build-manifest [--workload W]  rescan instances and rewrite bench/workloads/*.json
//
// See bench/README.md for what each metric means and which end-to-end
// metric each layer is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

func main() {
	var cfg runConfig
	var trace int
	var resultFile string
	var check, build bool
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload and print its result object as the last line")
	flag.Int64Var(&cfg.seed, "seed", 1, "orders and permutes requests; instances come from the manifests")
	flag.Float64Var(&cfg.seconds, "seconds", referenceSeconds, "length of the measured windows of one workload run; fixes the op counts")
	flag.IntVar(&trace, "trace", 0, "1: record spans and report per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.workloads, "workloads", "bench/workloads", "manifest directory")
	flag.StringVar(&cfg.outDir, "out", "bench/out", "output directory (results, traces, scratch journals)")
	flag.StringVar(&resultFile, "result", "", "also write the full result record of a --workload run to this file")
	flag.BoolVar(&check, "check", false, "run the untraced set twice and compare against the bounds")
	flag.BoolVar(&build, "build-manifest", false, "scan seeds and rewrite the workload manifests")
	flag.Parse()
	cfg.trace = trace != 0

	err := func() error {
		if flag.NArg() > 0 {
			return fmt.Errorf("unexpected argument %q", flag.Arg(0))
		}
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
		switch {
		case build:
			return buildManifests(cfg.workloads, cfg.workload)
		case check:
			return runCheck(cfg)
		case cfg.workload != "":
			return runOne(cfg, resultFile)
		default:
			return runAll(cfg)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "confbench:", err)
		os.Exit(1)
	}
}

// result is the full record of one workload run.
type result struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	Env       envInfo            `json:"env"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Clients   int                `json:"clients"`
	Rounds    int                `json:"rounds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Samples   map[string]int     `json:"samples"`
	Resolved  map[string]string  `json:"resolved"`
	Metrics   map[string]metric  `json:"metrics"`
	Counters  map[string]float64 `json:"counters"`
	// FailedShare is failed/attempted: non-2xx, timeout, degraded, wrong
	// status or optimum, or a design core.Verify rejects all count.
	FailedShare float64 `json:"failed_share"`
	WallS       float64 `json:"wall_s"`
}

// execute runs every round of one workload.
func execute(cfg runConfig) (*run, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	man, err := loadManifest(cfg.workloads, cfg.workload)
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, man: man, counters: map[string]float64{}, samples: map[string][]float64{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	rounds := w.rounds
	if cfg.rounds > 0 {
		rounds = cfg.rounds
	}
	for i := 0; i < rounds; i++ {
		var rd roundResult
		if err := w.round(r, &rd, r.tr, cfg.trace && i == 0); err != nil {
			return nil, fmt.Errorf("%s round %d: %w", cfg.workload, i, err)
		}
		r.rounds = append(r.rounds, rd)
		r.setups = append(r.setups, rd.setupS)
	}
	// Set-up is short against the measured windows, and on some workloads
	// a millisecond or two: it is repeated on its own, for up to a second,
	// so that setup_s is a median over many samples instead of three.
	for t0 := time.Now(); !cfg.trace && len(r.setups) < rounds+setupRepeats && time.Since(t0) < time.Second; {
		rd := roundResult{setupOnly: true}
		if err := w.round(r, &rd, nil, false); !errors.Is(err, errSetupOnly) {
			return nil, fmt.Errorf("%s set-up repetition: %v", cfg.workload, err)
		}
		r.setups = append(r.setups, rd.setupS)
	}
	return r, nil
}

// setupRepeats caps the set-up-only repetitions of a run.
const setupRepeats = 24

// summarize turns a finished run into its result record.
func summarize(r *run) *result {
	w, _ := workloadByName(r.cfg.workload)
	res := &result{
		Workload: w.name, Why: w.why, Env: environment(r.cfg.seed), Seconds: r.cfg.seconds, Traced: r.cfg.trace,
		Clients: numClients(), Rounds: len(r.rounds), Notes: r.notes, Counters: r.counters, Samples: map[string]int{},
	}
	res.Attempted, res.Failed = r.counts()
	res.FailedShare = ratio(float64(res.Failed), float64(res.Attempted))
	res.Failures = r.firstFailures(5)
	for _, rd := range r.rounds {
		res.WallS += rd.wallS
		for _, o := range rd.ops {
			res.Samples[o.class]++
		}
	}
	if r.cfg.trace {
		res.Metrics = r.perLayer()
	} else {
		res.Metrics, res.Resolved = r.endToEnd()
	}
	return res
}

// runOne is the single-workload mode the benchmark driver uses: the
// last line of standard output is the result object.
func runOne(cfg runConfig, resultFile string) error {
	r, err := execute(cfg)
	if err != nil {
		return err
	}
	res := summarize(r)
	if cfg.trace {
		spans := r.tr.snapshot()
		if err := writeJSON(filepath.Join(cfg.outDir, "trace_"+cfg.workload+".json"), struct {
			Env      envInfo            `json:"env"`
			Workload string             `json:"workload"`
			SelfUS   map[string]float64 `json:"self_us_by_name"`
			Spans    []span             `json:"spans"`
		}{res.Env, cfg.workload, selfByName(spans), spans}); err != nil {
			return err
		}
	}
	if resultFile != "" {
		if err := writeJSON(resultFile, res); err != nil {
			return err
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "failed op:", f)
	}
	for i, rd := range r.rounds {
		fmt.Fprintf(os.Stderr, "%s round %d: set-up %.3fs, %d ops in %.3fs\n", cfg.workload, i, rd.setupS, len(rd.ops), rd.wallS)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// child runs one workload in a process of its own (peak RSS is a
// per-process number) and returns its full result record.
func child(cfg runConfig, workload string, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	file := filepath.Join(cfg.outDir, fmt.Sprintf("run_%s_trace%d.json", workload, b2i(trace)))
	cmd := exec.Command(self,
		"--workload", workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", strconv.Itoa(b2i(trace)),
		"-workloads", cfg.workloads, "-out", cfg.outDir, "-result", file)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %v): %w", workload, trace, err)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var res result
	return &res, json.Unmarshal(data, &res)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runAll runs every workload untraced and traced, prints every metric
// by name and unit, and writes results.json.
func runAll(cfg runConfig) error {
	type pair struct {
		EndToEnd *result `json:"end_to_end"`
		PerLayer *result `json:"per_layer"`
	}
	out := struct {
		Env       envInfo          `json:"env"`
		Claim     *string          `json:"claim"` // this benchmark claims no gain
		Workloads map[string]*pair `json:"workloads"`
	}{Env: environment(cfg.seed), Workloads: map[string]*pair{}}
	failed := 0
	for _, w := range workloads {
		plain, err := child(cfg, w.name, false)
		if err != nil {
			return err
		}
		traced, err := child(cfg, w.name, true)
		if err != nil {
			return err
		}
		out.Workloads[w.name] = &pair{plain, traced}
		failed += plain.Failed + traced.Failed
		printWorkload(w, plain, traced)
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "results.json"), out); err != nil {
		return err
	}
	fmt.Printf("\nresults written to %s\n", filepath.Join(cfg.outDir, "results.json"))
	if failed > 0 {
		return fmt.Errorf("%d ops failed their check", failed)
	}
	return nil
}

func printWorkload(w workloadDef, plain, traced *result) {
	fmt.Printf("\n== %s — %s\n", w.name, w.why)
	fmt.Printf("   %d clients (closed loop), %d rounds, %d ops %v, measured %.1fs untraced / %.1fs traced\n",
		plain.Clients, plain.Rounds, plain.Attempted, plain.Samples, plain.WallS, traced.WallS)
	fmt.Printf("   %-32s %14.6g\n", "failed_share", plain.FailedShare)
	for _, d := range e2eDefs {
		if !d.appliesTo(w.name) {
			continue
		}
		note := ""
		if p := plain.Resolved[d.name]; p != "" && p != d.name[:3] {
			note = "  (too few samples beyond; reported " + p + ")"
		}
		fmt.Printf("   %-32s %14.6g %-6s%s\n", d.name, plain.Metrics[d.name].Value, d.unit, note)
	}
	names := make([]string, 0, len(traced.Metrics))
	for n := range traced.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("   %-32s %14.6g %s\n", n, traced.Metrics[n].Value, traced.Metrics[n].Unit)
	}
	for _, f := range append(plain.Failures, traced.Failures...) {
		fmt.Printf("   FAILED: %s\n", f)
	}
	for _, n := range append(plain.Notes, traced.Notes...) {
		fmt.Printf("   note: %s\n", n)
	}
}

// satCounters must repeat exactly between two runs of cold_solve and
// optimise: search is deterministic, and a count that moves without a
// code change means the benchmark cannot resolve a solver change.
var satCounters = []string{"conflicts", "decisions", "propagations", "restarts", "reduced", "subsumed"}

// runCheck runs the untraced set twice and compares: every end-to-end
// metric's second value must not be worse than the first by more than
// its bound, and the sat counters must be identical.
func runCheck(cfg runConfig) error {
	type row struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		First    float64 `json:"first"`
		Second   float64 `json:"second"`
		Worse    float64 `json:"worse_by"` // share of first; negative is better
		Bound    float64 `json:"bound"`
		Breach   bool    `json:"breach"`
	}
	out := struct {
		Env      envInfo  `json:"env"`
		Rows     []row    `json:"rows"`
		Breaches []string `json:"breaches"`
	}{Env: environment(cfg.seed)}
	for _, w := range workloads {
		a, err := child(cfg, w.name, false)
		if err != nil {
			return err
		}
		b, err := child(cfg, w.name, false)
		if err != nil {
			return err
		}
		if a.Failed+b.Failed > 0 {
			out.Breaches = append(out.Breaches, fmt.Sprintf("%s: %d ops failed their check", w.name, a.Failed+b.Failed))
		}
		for _, d := range e2eDefs {
			if !d.appliesTo(w.name) {
				continue
			}
			x, y := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			worse := ratio(y-x, x)
			if d.better == "higher" {
				worse = -worse
			}
			rw := row{w.name, d.name, x, y, worse, regressionBound, worse > regressionBound}
			out.Rows = append(out.Rows, rw)
			mark := ""
			if rw.Breach {
				mark = "  BREACH"
				out.Breaches = append(out.Breaches, fmt.Sprintf("%s %s: worse by %.1f%% (bound %.0f%%)", w.name, d.name, 100*worse, 100*regressionBound))
			}
			fmt.Printf("%-16s %-16s %12.5g %12.5g  worse by %+6.1f%% (bound %.0f%%)%s\n", w.name, d.name, x, y, 100*worse, 100*regressionBound, mark)
		}
		if w.name == "cold_solve" || w.name == "optimise" {
			for _, c := range satCounters {
				if a.Counters[c] != b.Counters[c] {
					out.Breaches = append(out.Breaches, fmt.Sprintf("%s sat.%s: %v then %v", w.name, c, a.Counters[c], b.Counters[c]))
				}
			}
			fmt.Printf("%-16s sat counters %v\n", w.name, pick(a.Counters, satCounters))
		}
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "repeat.json"), out); err != nil {
		return err
	}
	if len(out.Breaches) > 0 {
		return fmt.Errorf("%d breaches, first: %s", len(out.Breaches), out.Breaches[0])
	}
	return nil
}

func pick(m map[string]float64, keys []string) []float64 {
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}
