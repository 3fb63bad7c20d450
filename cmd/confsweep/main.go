// Command confsweep regenerates the paper's evaluation tables and
// figures as CSV.
//
// Usage:
//
//	confsweep -exp fig3a          one experiment
//	confsweep -exp all            every experiment (slow)
//	confsweep -list               list experiment names
//	confsweep -exp fig4a -workers 4
//	                              sweep data points on 4 goroutines and
//	                              race 4 diversified solvers per probe
//	confsweep -exp fig3a -json -outdir out
//	                              also write out/BENCH_fig3a.json with
//	                              wall-clock and solver statistics
//	confsweep -exp fig3a -verify  re-validate every model and unsat core
//	                              (equivalent to CONFSYNTH_VERIFY=1)
//	confsweep -batch -hosts 100 -variants 20 -seed 1
//	                              decomposed batch sweep: generate a
//	                              multi-region campus problem, derive N
//	                              threshold variants, and solve them
//	                              through one region-caching decomposed
//	                              solver; -json writes BENCH_decomp.json
//	                              with per-variant rows and the region
//	                              cache hit rate
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/decomp"
	"configsynth/internal/experiments"
	"configsynth/internal/netgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "confsweep:", err)
		os.Exit(1)
	}
}

// benchReport is the schema of a BENCH_<experiment>.json file.
type benchReport struct {
	Name          string                   `json:"name"`
	SweepWorkers  int                      `json:"sweep_workers"`
	SolverWorkers int                      `json:"solver_workers"`
	ElapsedMS     float64                  `json:"elapsed_ms"`
	Header        []string                 `json:"header"`
	Rows          [][]string               `json:"rows"`
	Solver        experiments.SolverTotals `json:"solver"`
	// Region-cache totals of a -batch sweep (absent otherwise).
	RegionHits    int64    `json:"region_hits,omitempty"`
	RegionMisses  int64    `json:"region_misses,omitempty"`
	RegionHitRate *float64 `json:"region_hit_rate,omitempty"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("confsweep", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "", "experiment name, or 'all'")
		list    = fs.Bool("list", false, "list experiment names")
		workers = fs.Int("workers", 1, "sweep data points concurrently and race this many diversified solvers per probe")
		jsonOut = fs.Bool("json", false, "also write BENCH_<experiment>.json with wall-clock and solver stats")
		outdir  = fs.String("outdir", ".", "directory for -json reports")
		verify  = fs.Bool("verify", false, "re-validate every model and unsat core the solvers produce (same switch as CONFSYNTH_VERIFY=1); a failed check aborts the sweep")

		batch      = fs.Bool("batch", false, "decomposed batch sweep over a generated campus problem (ignores -exp)")
		hosts      = fs.Int("hosts", 100, "campus size for -batch")
		variants   = fs.Int("variants", 20, "variant count for -batch")
		seed       = fs.Int64("seed", 1, "campus RNG seed for -batch")
		verifyEach = fs.Bool("verify-stitch", false, "re-verify every stitched -batch design against the monolithic problem")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *verify {
		// The env var is the canonical switch (core.Options reads it when
		// each experiment builds its problems), so the flag just sets it.
		if err := os.Setenv("CONFSYNTH_VERIFY", "1"); err != nil {
			return err
		}
	}
	if *list {
		for _, name := range experiments.Names() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}
	if *batch {
		experiments.SetWorkers(*workers, *workers)
		return runBatch(stdout, batchConfig{
			hosts:    *hosts,
			variants: *variants,
			seed:     *seed,
			verify:   *verifyEach,
			jsonOut:  *jsonOut,
			outdir:   *outdir,
		})
	}
	if *exp == "" {
		return fmt.Errorf("-exp <name> required; names: %s", strings.Join(experiments.Names(), ", "))
	}
	experiments.SetWorkers(*workers, *workers)
	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}
	registry := experiments.All()
	for _, name := range names {
		fn, ok := registry[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q; names: %s", name, strings.Join(experiments.Names(), ", "))
		}
		start := time.Now()
		res, err := fn()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		elapsed := time.Since(start)
		fmt.Fprintf(stdout, "# %s\n", res.Name)
		fmt.Fprintln(stdout, strings.Join(res.Header, ","))
		for _, row := range res.Rows {
			fmt.Fprintln(stdout, strings.Join(row, ","))
		}
		fmt.Fprintln(stdout)
		if *jsonOut {
			if err := writeBench(*outdir, res, elapsed); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	return nil
}

// batchConfig parameterizes the -batch sweep.
type batchConfig struct {
	hosts    int
	variants int
	seed     int64
	verify   bool
	jsonOut  bool
	outdir   string
}

// runBatch is the -batch mode: generate one multi-region campus
// problem, derive threshold variants (every variant moves the cost
// budget, every tenth block also moves the isolation slider), and solve
// them all through a single decomposed solver. Subproblem fingerprints
// never include the budget, so budget-only variants re-use every region
// from the cache and the sweep's cost is dominated by the few
// slider-class cold solves — the per-variant hit/miss columns and the
// final hit rate make that visible.
func runBatch(stdout io.Writer, cfg batchConfig) error {
	if cfg.hosts < 4 {
		return fmt.Errorf("-batch needs -hosts >= 4, got %d", cfg.hosts)
	}
	if cfg.variants < 1 {
		return fmt.Errorf("-batch needs -variants >= 1, got %d", cfg.variants)
	}
	baseBudget := int64(cfg.hosts) * 20
	base, err := netgen.Campus(netgen.CampusConfig{
		Hosts: cfg.hosts,
		Seed:  cfg.seed,
		Thresholds: core.Thresholds{
			IsolationTenths: 30,
			UsabilityTenths: 40,
			CostBudget:      baseBudget,
		},
	})
	if err != nil {
		return err
	}
	sweep, solverW := experiments.Workers()
	solver := decomp.New(decomp.Options{
		Workers:      sweep,
		VerifyStitch: cfg.verify,
	})

	res := experiments.Result{
		Name:   "decomp",
		Header: []string{"variant", "iso", "budget", "status", "cost", "regions", "region_hits", "region_misses", "repaired", "elapsed_ms"},
	}
	start := time.Now()
	for i := 0; i < cfg.variants; i++ {
		q := *base
		q.Thresholds = core.Thresholds{
			IsolationTenths: 30 + 5*((i/10)%2),
			UsabilityTenths: 40,
			CostBudget:      baseBudget + int64(10*i),
		}
		r, err := solver.Solve(context.Background(), &q)
		if err != nil {
			return fmt.Errorf("variant %d: %w", i, err)
		}
		status, cost := "sat", int64(0)
		if r.Unsat {
			status = "unsat"
			if r.Conservative {
				status = "unsat?"
			}
		} else {
			cost = r.Design.Cost
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("v%d", i),
			fmt.Sprintf("%.1f", float64(q.Thresholds.IsolationTenths)/10),
			fmt.Sprintf("%d", q.Thresholds.CostBudget),
			status,
			fmt.Sprintf("%d", cost),
			fmt.Sprintf("%d", len(r.Regions)),
			fmt.Sprintf("%d", r.Hits),
			fmt.Sprintf("%d", r.Misses),
			fmt.Sprintf("%d", r.Repaired),
			fmt.Sprintf("%d", r.ElapsedMS),
		})
		res.Totals.Add(r.Stats)
	}
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "# %s (hosts=%d variants=%d seed=%d)\n", res.Name, cfg.hosts, cfg.variants, cfg.seed)
	fmt.Fprintln(stdout, strings.Join(res.Header, ","))
	for _, row := range res.Rows {
		fmt.Fprintln(stdout, strings.Join(row, ","))
	}
	cs := solver.CacheStats()
	rate := 0.0
	if cs.Hits+cs.Misses > 0 {
		rate = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}
	fmt.Fprintf(stdout, "# region cache: hits=%d misses=%d rate=%.1f%%\n", cs.Hits, cs.Misses, 100*rate)

	if cfg.jsonOut {
		report := benchReport{
			Name:          res.Name,
			SweepWorkers:  sweep,
			SolverWorkers: solverW,
			ElapsedMS:     float64(elapsed.Microseconds()) / 1000,
			Header:        res.Header,
			Rows:          res.Rows,
			Solver:        res.Totals,
			RegionHits:    cs.Hits,
			RegionMisses:  cs.Misses,
			RegionHitRate: &rate,
		}
		if err := writeReport(cfg.outdir, report); err != nil {
			return err
		}
	}
	return nil
}

// writeBench writes the experiment's benchmark report to
// <outdir>/BENCH_<name>.json.
func writeBench(outdir string, res experiments.Result, elapsed time.Duration) error {
	sweep, solver := experiments.Workers()
	return writeReport(outdir, benchReport{
		Name:          res.Name,
		SweepWorkers:  sweep,
		SolverWorkers: solver,
		ElapsedMS:     float64(elapsed.Microseconds()) / 1000,
		Header:        res.Header,
		Rows:          res.Rows,
		Solver:        res.Totals,
	})
}

// writeReport marshals one benchmark report to
// <outdir>/BENCH_<name>.json.
func writeReport(outdir string, report benchReport) error {
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(filepath.Join(outdir, "BENCH_"+report.Name+".json"), data, 0o644)
}
