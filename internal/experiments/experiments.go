// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV-C and §V). Each experiment returns a header row plus
// data rows, which cmd/confsweep prints as CSV and the benchmark harness
// reports; EXPERIMENTS.md records the measured outcomes against the
// paper's.
//
// Parameters follow the paper's methodology (§V-B): random test networks
// with hosts in 5–100 and routers in 8–20, 1–3 services per host pair,
// connectivity requirements of 10–20% of the flows, isolation and
// usability thresholds on normalized 0–10 scales. Where the paper's
// absolute sizes would make a single data point run for minutes on the
// SAT substrate, the sweep uses the same shape over slightly smaller
// grids; the scaling trends are what the experiments reproduce.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/isolation"
	"configsynth/internal/netgen"
	"configsynth/internal/portfolio"
	"configsynth/internal/sat"
)

// Result is one regenerated table or figure.
type Result struct {
	// Name is the experiment ID, e.g. "fig3a".
	Name string
	// Header labels the columns.
	Header []string
	// Rows are the data series.
	Rows [][]string
	// Totals sums the solver counters of every synthesis the experiment
	// ran (reported by confsweep -json).
	Totals sat.Counters
}

// Worker knobs, set once before running experiments (confsweep -workers,
// or CONFSYNTH_WORKERS for the benchmark harness). sweepWorkers bounds
// how many data points of a scaling sweep run concurrently; each point
// builds its own problem and solver, so rows are independent and only
// the wall-clock timing columns vary run to run. solverWorkers selects
// the portfolio size for solver-level racing in the optimization
// experiments (fig3a, fig3b, table3).
var (
	workersMu     sync.RWMutex
	sweepWorkers  = 1
	solverWorkers = 1
)

// SetWorkers configures sweep- and solver-level parallelism; values
// below 1 are clamped to 1 (the sequential default).
func SetWorkers(sweep, solver int) {
	if sweep < 1 {
		sweep = 1
	}
	if solver < 1 {
		solver = 1
	}
	workersMu.Lock()
	sweepWorkers, solverWorkers = sweep, solver
	workersMu.Unlock()
}

// Workers reports the configured sweep and solver parallelism.
func Workers() (sweep, solver int) {
	workersMu.RLock()
	defer workersMu.RUnlock()
	return sweepWorkers, solverWorkers
}

// newSynth builds the solver the experiments measure: the plain
// synthesizer by default, a racing portfolio when solver workers are
// configured.
func newSynth(prob *core.Problem) (*portfolio.Solver, error) {
	_, solver := Workers()
	return portfolio.New(prob, solver)
}

// runRows computes n data rows concurrently on a worker pool bounded by
// the sweep parallelism, preserving input order.
func runRows(n int, f func(i int) ([]string, sat.Counters, error)) ([][]string, sat.Counters, error) {
	sweep, _ := Workers()
	rows := make([][]string, n)
	stats := make([]sat.Counters, n)
	errs := make([]error, n)
	sem := make(chan struct{}, sweep)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			rows[i], stats[i], errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	var tot sat.Counters
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, tot, errs[i]
		}
		tot.Add(stats[i])
	}
	return rows, tot, nil
}

// quickProbeBudget bounds each optimization probe so sweeps stay
// interactive; the trade-off knob is Options.ProbeBudget.
const quickProbeBudget = 15000

// solveBudget bounds plain satisfiability checks in timing sweeps.
const solveBudget = 300000

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// Fig3a reproduces Fig. 3(a): maximum possible isolation vs the
// usability constraint, for deployment budgets of $10K and $20K, on the
// paper's example network.
func Fig3a() (Result, error) {
	res := Result{
		Name:   "fig3a",
		Header: []string{"usability", "isolation_cost10", "isolation_cost20"},
	}
	prob := netgen.PaperExample()
	prob.Options.ProbeBudget = quickProbeBudget
	syn, err := newSynth(prob)
	if err != nil {
		return res, err
	}
	for u := 0; u <= 80; u += 10 {
		row := []string{f1(float64(u) / 10)}
		for _, budget := range []int64{10, 20} {
			iso, _, err := syn.MaxIsolation(u, budget)
			if err != nil {
				if core.IsUnsat(err) {
					row = append(row, "unsat")
					continue
				}
				return res, err
			}
			row = append(row, f2(iso))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Totals = syn.Stats().Counters
	return res, nil
}

// Fig3b reproduces Fig. 3(b): maximum possible isolation vs the
// deployment cost constraint, for usability constraints 5 and 7.
func Fig3b() (Result, error) {
	res := Result{
		Name:   "fig3b",
		Header: []string{"cost", "isolation_usability5", "isolation_usability7"},
	}
	prob := netgen.PaperExample()
	prob.Options.ProbeBudget = quickProbeBudget
	syn, err := newSynth(prob)
	if err != nil {
		return res, err
	}
	for cost := int64(5); cost <= 30; cost += 5 {
		row := []string{fmt.Sprintf("%d", cost)}
		for _, u := range []int{50, 70} {
			iso, _, err := syn.MaxIsolation(u, cost)
			if err != nil {
				if core.IsUnsat(err) {
					row = append(row, "unsat")
					continue
				}
				return res, err
			}
			row = append(row, f2(iso))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Totals = syn.Stats().Counters
	return res, nil
}

// timing generates a problem and measures synthesis time (model
// generation plus constraint solving, as in the paper).
func timing(cfg netgen.Config) (time.Duration, core.ModelStats, string, error) {
	prob, err := netgen.Generate(cfg)
	if err != nil {
		return 0, core.ModelStats{}, "", err
	}
	prob.Options.SolverBudget = solveBudget
	start := time.Now()
	syn, err := newSynth(prob)
	if err != nil {
		return 0, core.ModelStats{}, "", err
	}
	_, err = syn.Solve()
	elapsed := time.Since(start)
	status := "sat"
	switch {
	case core.IsUnsat(err):
		status = "unsat"
	case err != nil:
		status = "unknown"
	}
	return elapsed, syn.Stats(), status, nil
}

// moderate thresholds keep the timing sweeps in the paper's satisfiable
// regime: modest isolation demand, usability floor, generous budget.
func moderate(hosts int) core.Thresholds {
	return core.Thresholds{
		IsolationTenths: 30,
		UsabilityTenths: 50,
		CostBudget:      int64(hosts) * 4,
	}
}

// Fig4a reproduces Fig. 4(a): synthesis time vs the number of hosts,
// with connectivity requirements at 10% and 20% of the flows.
func Fig4a() (Result, error) {
	res := Result{
		Name:   "fig4a",
		Header: []string{"hosts", "flows", "time_ms_cr10", "time_ms_cr20"},
	}
	hostGrid := []int{10, 20, 30, 40, 50}
	rows, totals, err := runRows(len(hostGrid), func(i int) ([]string, sat.Counters, error) {
		hosts := hostGrid[i]
		row := []string{fmt.Sprintf("%d", hosts)}
		var sum sat.Counters
		var flowCount int
		for _, cr := range []float64{0.10, 0.20} {
			cfg := netgen.Config{
				Hosts: hosts, Routers: 10, MaxServices: 3,
				CRFraction: cr, Seed: int64(hosts),
				Thresholds: moderate(hosts),
			}
			elapsed, stats, status, err := timing(cfg)
			if err != nil {
				return nil, sum, err
			}
			if status != "sat" {
				row = append(row, status)
			} else {
				row = append(row, ms(elapsed))
			}
			flowCount = stats.Flows
			sum.Add(stats.Counters)
		}
		row = append(row[:1], append([]string{fmt.Sprintf("%d", flowCount)}, row[1:]...)...)
		return row, sum, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows, res.Totals = rows, totals
	return res, nil
}

// Fig4b reproduces Fig. 4(b): synthesis time vs the number of routers.
func Fig4b() (Result, error) {
	res := Result{
		Name:   "fig4b",
		Header: []string{"routers", "time_ms_cr10", "time_ms_cr20"},
	}
	routerGrid := []int{8, 12, 16, 20}
	rows, totals, err := runRows(len(routerGrid), func(i int) ([]string, sat.Counters, error) {
		routers := routerGrid[i]
		row := []string{fmt.Sprintf("%d", routers)}
		var sum sat.Counters
		for _, cr := range []float64{0.10, 0.20} {
			cfg := netgen.Config{
				Hosts: 20, Routers: routers, MaxServices: 3,
				CRFraction: cr, Seed: int64(routers),
				Thresholds: moderate(20),
			}
			elapsed, stats, status, err := timing(cfg)
			if err != nil {
				return nil, sum, err
			}
			if status != "sat" {
				row = append(row, status)
			} else {
				row = append(row, ms(elapsed))
			}
			sum.Add(stats.Counters)
		}
		return row, sum, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows, res.Totals = rows, totals
	return res, nil
}

// Fig4c reproduces Fig. 4(c): synthesis time vs the volume of
// connectivity requirements, for networks of 20 and 30 hosts.
func Fig4c() (Result, error) {
	res := Result{
		Name:   "fig4c",
		Header: []string{"cr_percent", "time_ms_hosts20", "time_ms_hosts30"},
	}
	crGrid := []int{5, 10, 15, 20, 25, 30}
	rows, totals, err := runRows(len(crGrid), func(i int) ([]string, sat.Counters, error) {
		crPct := crGrid[i]
		row := []string{fmt.Sprintf("%d", crPct)}
		var sum sat.Counters
		for _, hosts := range []int{20, 30} {
			cfg := netgen.Config{
				Hosts: hosts, Routers: 10, MaxServices: 3,
				CRFraction: float64(crPct) / 100, Seed: int64(crPct),
				Thresholds: moderate(hosts),
			}
			elapsed, stats, status, err := timing(cfg)
			if err != nil {
				return nil, sum, err
			}
			if status != "sat" {
				row = append(row, status)
			} else {
				row = append(row, ms(elapsed))
			}
			sum.Add(stats.Counters)
		}
		return row, sum, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows, res.Totals = rows, totals
	return res, nil
}

// Fig5a reproduces Fig. 5(a): synthesis time vs the isolation
// constraint, at usability constraints 3 and 5.
func Fig5a() (Result, error) {
	res := Result{
		Name:   "fig5a",
		Header: []string{"isolation", "time_ms_usability3", "time_ms_usability5"},
	}
	isoGrid := []int{10, 20, 30, 40, 50, 60}
	rows, totals, err := runRows(len(isoGrid), func(i int) ([]string, sat.Counters, error) {
		iso := isoGrid[i]
		row := []string{f1(float64(iso) / 10)}
		var sum sat.Counters
		for _, u := range []int{30, 50} {
			cfg := netgen.Config{
				Hosts: 30, Routers: 10, MaxServices: 3,
				CRFraction: 0.10, Seed: 30,
				Thresholds: core.Thresholds{
					IsolationTenths: iso,
					UsabilityTenths: u,
					CostBudget:      150,
				},
			}
			elapsed, stats, status, err := timing(cfg)
			if err != nil {
				return nil, sum, err
			}
			row = append(row, ms(elapsed)+"/"+status)
			sum.Add(stats.Counters)
		}
		return row, sum, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows, res.Totals = rows, totals
	return res, nil
}

// Fig5b reproduces Fig. 5(b): synthesis time vs the deployment cost
// constraint, at usability constraints 3 and 5.
func Fig5b() (Result, error) {
	res := Result{
		Name:   "fig5b",
		Header: []string{"cost", "time_ms_usability3", "time_ms_usability5"},
	}
	costGrid := []int64{40, 60, 80, 100, 120, 150}
	rows, totals, err := runRows(len(costGrid), func(i int) ([]string, sat.Counters, error) {
		cost := costGrid[i]
		row := []string{fmt.Sprintf("%d", cost)}
		var sum sat.Counters
		for _, u := range []int{30, 50} {
			cfg := netgen.Config{
				Hosts: 30, Routers: 10, MaxServices: 3,
				CRFraction: 0.10, Seed: 31,
				Thresholds: core.Thresholds{
					IsolationTenths: 30,
					UsabilityTenths: u,
					CostBudget:      cost,
				},
			}
			elapsed, stats, status, err := timing(cfg)
			if err != nil {
				return nil, sum, err
			}
			row = append(row, ms(elapsed)+"/"+status)
			sum.Add(stats.Counters)
		}
		return row, sum, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows, res.Totals = rows, totals
	return res, nil
}

// Fig5c reproduces Fig. 5(c): synthesis time for satisfiable vs
// unsatisfiable instances as the number of hosts grows. Unsatisfiable
// cases demand more isolation than the usability constraint permits.
func Fig5c() (Result, error) {
	res := Result{
		Name:   "fig5c",
		Header: []string{"hosts", "time_ms_sat", "time_ms_unsat"},
	}
	hostGrid := []int{10, 20, 30, 40}
	rows, totals, err := runRows(len(hostGrid), func(i int) ([]string, sat.Counters, error) {
		hosts := hostGrid[i]
		row := []string{fmt.Sprintf("%d", hosts)}
		var sum sat.Counters
		// SAT: moderate thresholds.
		cfg := netgen.Config{
			Hosts: hosts, Routers: 10, MaxServices: 3,
			CRFraction: 0.10, Seed: int64(hosts),
			Thresholds: moderate(hosts),
		}
		elapsed, stats, status, err := timing(cfg)
		if err != nil {
			return nil, sum, err
		}
		row = append(row, ms(elapsed)+"/"+status)
		sum.Add(stats.Counters)
		// UNSAT: isolation demand above what usability 8 permits.
		cfg.Thresholds = core.Thresholds{
			IsolationTenths: 90,
			UsabilityTenths: 80,
			CostBudget:      int64(hosts) * 10,
		}
		elapsed, stats, status, err = timing(cfg)
		if err != nil {
			return nil, sum, err
		}
		row = append(row, ms(elapsed)+"/"+status)
		sum.Add(stats.Counters)
		return row, sum, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows, res.Totals = rows, totals
	return res, nil
}

// TableIII reproduces Table III: slider assistance for the example
// network — best achievable isolation and the configuration shape per
// usability level.
func TableIII() (Result, error) {
	res := Result{
		Name:   "table3",
		Header: []string{"usability", "isolation", "configuration"},
	}
	prob := netgen.PaperExample()
	prob.Options.ProbeBudget = quickProbeBudget
	syn, err := newSynth(prob)
	if err != nil {
		return res, err
	}
	entries, err := syn.Assist([]int{0, 25, 50, 75, 100})
	if err != nil {
		return res, err
	}
	for _, e := range entries {
		res.Rows = append(res.Rows, []string{
			f1(float64(e.UsabilityTenths) / 10),
			f1(float64(e.IsolationTenths) / 10),
			e.Note,
		})
	}
	res.Totals = syn.Stats().Counters
	return res, nil
}

// TableV reproduces Table V / Fig. 2(b): the example synthesis with the
// per-flow isolation patterns and the device placements.
func TableV() (Result, error) {
	res := Result{
		Name:   "table5",
		Header: []string{"metric", "value"},
	}
	prob := netgen.PaperExample()
	start := time.Now()
	syn, err := newSynth(prob)
	if err != nil {
		return res, err
	}
	design, err := syn.Solve()
	if err != nil {
		return res, err
	}
	elapsed := time.Since(start)
	res.Totals = syn.Stats().Counters
	mix := design.PatternMix()
	res.Rows = append(res.Rows,
		[]string{"time_ms", ms(elapsed)},
		[]string{"isolation", f2(design.Isolation)},
		[]string{"usability", f2(design.Usability)},
		[]string{"cost_K", fmt.Sprintf("%d", design.Cost)},
		[]string{"devices", fmt.Sprintf("%d", design.DeviceCount())},
		[]string{"pct_access_deny", f2(100 * mix[isolation.AccessDeny])},
		[]string{"pct_trusted_comm", f2(100 * mix[isolation.TrustedComm])},
		[]string{"pct_payload_inspection", f2(100 * mix[isolation.PayloadInspection])},
		[]string{"pct_proxy", f2(100 * (mix[isolation.ProxyForwarding] + mix[isolation.ProxyTrustedComm]))},
		[]string{"pct_no_isolation", f2(100 * mix[isolation.PatternNone])},
	)
	return res, nil
}

// TableVI reproduces Table VI: model memory vs the number of hosts, for
// isolation constraints 3 and 5. The substrate reports its structural
// memory estimate (variables, clauses, PB terms).
func TableVI() (Result, error) {
	res := Result{
		Name:   "table6",
		Header: []string{"hosts", "mem_mb_iso3", "mem_mb_iso5"},
	}
	hostGrid := []int{10, 20, 30, 40, 50}
	rows, totals, err := runRows(len(hostGrid), func(i int) ([]string, sat.Counters, error) {
		hosts := hostGrid[i]
		row := []string{fmt.Sprintf("%d", hosts)}
		var sum sat.Counters
		for _, iso := range []int{30, 50} {
			cfg := netgen.Config{
				Hosts: hosts, Routers: 10, MaxServices: 3,
				CRFraction: 0.10, Seed: int64(hosts),
				Thresholds: core.Thresholds{
					IsolationTenths: iso,
					UsabilityTenths: 40,
					CostBudget:      int64(hosts) * 4,
				},
			}
			prob, err := netgen.Generate(cfg)
			if err != nil {
				return nil, sum, err
			}
			prob.Options.SolverBudget = solveBudget
			syn, err := newSynth(prob)
			if err != nil {
				return nil, sum, err
			}
			_, _ = syn.Solve()
			st := syn.Stats()
			sum.Add(st.Counters)
			row = append(row, f2(float64(st.EstimatedBytes)/(1<<20)))
		}
		return row, sum, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows, res.Totals = rows, totals
	return res, nil
}

// AblationFlowTheory compares synthesis with and without the
// flow-assignment theory propagator (DESIGN.md ablation 1): the paper's
// example at a tight isolation threshold, measured in conflicts within a
// fixed budget.
func AblationFlowTheory() (Result, error) {
	res := Result{
		Name:   "ablation_flowtheory",
		Header: []string{"variant", "status", "time_ms", "conflicts"},
	}
	for _, disable := range []bool{false, true} {
		prob := netgen.PaperExample()
		prob.Thresholds.IsolationTenths = 80 // above the usability cap: UNSAT
		prob.Thresholds.UsabilityTenths = 60
		prob.Options.SolverBudget = 100000
		prob.Options.DisableFlowTheory = disable
		start := time.Now()
		syn, err := core.NewSynthesizer(prob)
		if err != nil {
			return res, err
		}
		_, err = syn.Solve()
		elapsed := time.Since(start)
		status := "sat"
		switch {
		case core.IsUnsat(err):
			status = "unsat"
		case err != nil:
			status = "unknown"
		}
		name := "with_theory"
		if disable {
			name = "without_theory"
		}
		res.Rows = append(res.Rows, []string{
			name, status, ms(elapsed), fmt.Sprintf("%d", syn.Stats().Conflicts),
		})
	}
	return res, nil
}

// AblationRouteBound measures the effect of the route-enumeration cap on
// model size and synthesis time (DESIGN.md ablation 2).
func AblationRouteBound() (Result, error) {
	res := Result{
		Name:   "ablation_routebound",
		Header: []string{"max_routes", "routes", "clauses", "time_ms"},
	}
	for _, maxRoutes := range []int{2, 4, 8} {
		cfg := netgen.Config{
			Hosts: 20, Routers: 12, MaxServices: 2, CRFraction: 0.10, Seed: 5,
			Thresholds: moderate(20),
		}
		cfg.Options.Routes.MaxRoutes = maxRoutes
		prob, err := netgen.Generate(cfg)
		if err != nil {
			return res, err
		}
		prob.Options.SolverBudget = solveBudget
		start := time.Now()
		syn, err := core.NewSynthesizer(prob)
		if err != nil {
			return res, err
		}
		_, _ = syn.Solve()
		elapsed := time.Since(start)
		st := syn.Stats()
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", maxRoutes),
			fmt.Sprintf("%d", st.Routes),
			fmt.Sprintf("%d", st.Clauses),
			ms(elapsed),
		})
	}
	return res, nil
}

// AblationMaximize compares the binary-search optimizer against a naive
// linear threshold scan (DESIGN.md ablation 3) on the example network.
func AblationMaximize() (Result, error) {
	res := Result{
		Name:   "ablation_maximize",
		Header: []string{"strategy", "isolation", "time_ms"},
	}
	// Binary search (the built-in MaxIsolation, portfolio-raced when
	// solver workers are configured).
	prob := netgen.PaperExample()
	prob.Options.ProbeBudget = quickProbeBudget
	syn, err := newSynth(prob)
	if err != nil {
		return res, err
	}
	start := time.Now()
	iso, _, err := syn.MaxIsolation(50, 20)
	if err != nil {
		return res, err
	}
	res.Totals = syn.Stats().Counters
	res.Rows = append(res.Rows, []string{"binary_search", f2(iso), ms(time.Since(start))})

	// Linear scan: raise the isolation slider one tenth at a time on a
	// fresh model until the first failure. The per-check conflict budget
	// matches the binary search's probe budget.
	prob2 := netgen.PaperExample()
	prob2.Options.SolverBudget = quickProbeBudget
	syn2, err := core.NewSynthesizer(prob2)
	if err != nil {
		return res, err
	}
	start = time.Now()
	best := 0.0
	for t := 0; t <= 100; t++ {
		d, err := syn2.CheckAt(core.Thresholds{
			IsolationTenths: t,
			UsabilityTenths: 50,
			CostBudget:      20,
		})
		if err != nil {
			break
		}
		best = d.Isolation
		if ten := int(d.Isolation * 10); ten > t {
			t = ten
		}
	}
	res.Rows = append(res.Rows, []string{"linear_scan", f2(best), ms(time.Since(start))})
	return res, nil
}

// All lists every experiment by name.
func All() map[string]func() (Result, error) {
	return map[string]func() (Result, error){
		"fig3a":               Fig3a,
		"fig3b":               Fig3b,
		"fig4a":               Fig4a,
		"fig4b":               Fig4b,
		"fig4c":               Fig4c,
		"fig5a":               Fig5a,
		"fig5b":               Fig5b,
		"fig5c":               Fig5c,
		"table3":              TableIII,
		"table5":              TableV,
		"table6":              TableVI,
		"ablation_flowtheory": AblationFlowTheory,
		"ablation_maximize":   AblationMaximize,
		"ablation_routebound": AblationRouteBound,
	}
}

// Names returns the experiment names in a stable order.
func Names() []string {
	return []string{
		"fig3a", "fig3b", "fig4a", "fig4b", "fig4c",
		"fig5a", "fig5b", "fig5c",
		"table3", "table5", "table6",
		"ablation_flowtheory", "ablation_maximize", "ablation_routebound",
	}
}
