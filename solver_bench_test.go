package configsynth_test

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/netgen"
	"configsynth/internal/portfolio"
	"configsynth/internal/service"
	"configsynth/internal/smt"
	"configsynth/internal/spec"
)

// Solver microbenchmarks: raw backend speed on seeded netgen instances
// (the ledger's cold_solve and optimise workloads measure the same
// probes end to end). Unlike the experiment
// benchmarks above (which regenerate whole paper figures), these measure
// a single satisfiability probe — the unit every portfolio race, cache
// miss, and descent step pays — at 20/50/100 hosts in both the SAT and
// the UNSAT regime, plus the pseudo-Boolean propagation hot path in
// isolation. Run with:
//
//	go test -bench 'Solver|PB' -benchmem
//
// Statuses are asserted every iteration, so `-benchtime=1x` doubles as a
// correctness smoke (the CI bench-smoke job).

// solverBenchConfig is the shared instance shape: paper-scale routers,
// 3 services per pair, 10% connectivity requirements, deterministic
// seed derived from the host count.
func solverBenchConfig(hosts int) netgen.Config {
	return netgen.Config{
		Hosts: hosts, Routers: 10, MaxServices: 3,
		CRFraction: 0.10, Seed: int64(hosts),
	}
}

// satThresholds keeps 20/50/100-host probes in the satisfiable regime
// (the experiments' "moderate" setting).
func satThresholds(hosts int) core.Thresholds {
	return core.Thresholds{IsolationTenths: 30, UsabilityTenths: 50, CostBudget: int64(hosts) * 4}
}

// unsatThresholds demands more isolation than usability 8 permits (the
// Fig. 5(c) UNSAT construction), forcing a full refutation.
func unsatThresholds(hosts int) core.Thresholds {
	return core.Thresholds{IsolationTenths: 90, UsabilityTenths: 80, CostBudget: int64(hosts) * 10}
}

// benchProbe measures encode+solve of one status probe. Each iteration
// builds a fresh synthesizer: the solver is incremental, so re-probing a
// warm instance would measure clause-database reuse, not a solve.
func benchProbe(b *testing.B, hosts int, th core.Thresholds, want smt.Status) {
	prob, err := netgen.Generate(solverBenchConfig(hosts))
	if err != nil {
		b.Fatal(err)
	}
	prob.Thresholds = th
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syn, err := core.NewSynthesizer(prob)
		if err != nil {
			b.Fatal(err)
		}
		if got := syn.ProbeStatus(th, false); got != want {
			b.Fatalf("probe at %d hosts: status %v, want %v", hosts, got, want)
		}
	}
}

func BenchmarkSolverSAT20(b *testing.B)  { benchProbe(b, 20, satThresholds(20), smt.Sat) }
func BenchmarkSolverSAT50(b *testing.B)  { benchProbe(b, 50, satThresholds(50), smt.Sat) }
func BenchmarkSolverSAT100(b *testing.B) { benchProbe(b, 100, satThresholds(100), smt.Sat) }

func BenchmarkSolverUNSAT20(b *testing.B)  { benchProbe(b, 20, unsatThresholds(20), smt.Unsat) }
func BenchmarkSolverUNSAT50(b *testing.B)  { benchProbe(b, 50, unsatThresholds(50), smt.Unsat) }
func BenchmarkSolverUNSAT100(b *testing.B) { benchProbe(b, 100, unsatThresholds(100), smt.Unsat) }

// BenchmarkSynthesizerClone50 measures what a portfolio worker or a
// what-if delta pays instead of an encode: a structural clone of the
// 50-host template plus its three threshold guards. Read it against
// BenchmarkSolverSAT50 (encode + one probe) for the clone-vs-encode
// ratio; allocs/op is the number of objects a clone owns.
func BenchmarkSynthesizerClone50(b *testing.B) {
	prob, err := netgen.Generate(solverBenchConfig(50))
	if err != nil {
		b.Fatal(err)
	}
	prob.Thresholds = satThresholds(50)
	tmpl, err := core.NewTemplate(prob)
	if err != nil {
		b.Fatal(err)
	}
	want := tmpl.Stats().Vars + 3 // one guard variable per threshold
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syn, err := tmpl.Clone(prob.Thresholds, smt.SolverConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if got := syn.Stats().Vars; got != want {
			b.Fatalf("clone has %d variables, want %d", got, want)
		}
	}
}

// BenchmarkEncode50 measures the other side of that ratio alone: one
// encode of the 50-host template, with no clone and no probe. It is the
// bulk load every cold job pays once; allocs/op is what
// core.TestEncodeAllocBudget holds under one allocation per variable.
func BenchmarkEncode50(b *testing.B) {
	prob, err := netgen.Generate(solverBenchConfig(50))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmpl, err := core.NewTemplate(prob)
		if err != nil {
			b.Fatal(err)
		}
		if got := tmpl.Stats().Clauses; got == 0 {
			b.Fatal("template holds no clauses")
		}
	}
}

// BenchmarkSolverMinCost50 measures a full optimization descent (binary
// search over guarded cost probes) — the shape every MinCost service
// request and slider sweep runs.
func BenchmarkSolverMinCost50(b *testing.B) {
	prob, err := netgen.Generate(solverBenchConfig(50))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syn, err := core.NewSynthesizer(prob)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := syn.MinCost(30, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// sliderSweepPoints is the full 3-threshold slider sweep around the
// 50-host instance's base thresholds: each of the three sliders
// (isolation, usability, cost budget) moves through nearby values while
// the other two stay at the base — the paper's Table III "slider
// assistance" UX, thirteen what-if points in one family.
func sliderSweepPoints(base core.Thresholds) []core.Thresholds {
	var pts []core.Thresholds
	for _, iso := range []int{10, 20, 30, 40, 50} {
		th := base
		th.IsolationTenths = iso
		pts = append(pts, th)
	}
	for _, usa := range []int{30, 40, 60, 70} {
		th := base
		th.UsabilityTenths = usa
		pts = append(pts, th)
	}
	for _, cost := range []int64{120, 160, 240, 280} {
		th := base
		th.CostBudget = cost
		pts = append(pts, th)
	}
	return pts
}

// BenchmarkSliderSweep measures the what-if session payoff: a full
// 3-threshold slider sweep on the 50-host instance (13 points), solved
// from scratch (a fresh racing portfolio per point — what /v1/synthesize
// pays) versus on one persistent session (Retarget per point — what
// /v1/whatif pays). Designs are asserted bit-identical between the two
// paths every iteration, so -benchtime=1x doubles as a determinism
// smoke; the session/scratch ns-per-op ratio is the number
// EXPERIMENTS.md tracks (acceptance: ≤ 0.5x).
func BenchmarkSliderSweep(b *testing.B) {
	const workers = 3
	prob, err := netgen.Generate(solverBenchConfig(50))
	if err != nil {
		b.Fatal(err)
	}
	prob.Thresholds = satThresholds(50)
	sweep := sliderSweepPoints(prob.Thresholds)
	probAt := func(th core.Thresholds) *core.Problem {
		q := *prob
		q.Thresholds = th
		return &q
	}

	// Reference designs, computed once outside the timed loops on plain
	// sequential solvers (every path must agree with them bit for bit).
	want := make([]*core.Design, len(sweep))
	for i, th := range sweep {
		s, err := portfolio.New(probAt(th), 1)
		if err != nil {
			b.Fatal(err)
		}
		if want[i], err = s.Solve(); err != nil {
			b.Fatal(err)
		}
	}
	check := func(i int, d *core.Design) {
		w := want[i]
		if d.Isolation != w.Isolation || d.Usability != w.Usability || d.Cost != w.Cost ||
			!reflect.DeepEqual(d.Placements, w.Placements) {
			b.Fatalf("sweep point %d diverged from reference", i)
		}
	}

	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for pt, th := range sweep {
				s, err := portfolio.NewRacing(probAt(th), workers)
				if err != nil {
					b.Fatal(err)
				}
				d, err := s.Solve()
				if err != nil {
					b.Fatal(err)
				}
				check(pt, d)
			}
		}
	})
	b.Run("session", func(b *testing.B) {
		ses, err := portfolio.NewSession(prob, workers)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for pt, th := range sweep {
				if err := ses.Retarget(probAt(th)); err != nil {
					b.Fatal(err)
				}
				d, err := ses.Solve()
				if err != nil {
					b.Fatal(err)
				}
				check(pt, d)
			}
		}
	})
}

// pbInstance builds a dense seeded pseudo-Boolean store: nVars decision
// variables under overlapping weighted at-most bounds plus mixing
// clauses. It stresses pb.Theory's assign/unassign counter maintenance
// and propagation queue — the backend hot path behind the isolation,
// usability, and cost sums.
func pbInstance(s *smt.Solver, nVars, nCons int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	vars := make([]smt.Bool, nVars)
	for i := range vars {
		vars[i] = s.NewBool()
	}
	for c := 0; c < nCons; c++ {
		sum := &smt.Sum{}
		n := 4 + rng.Intn(9)
		seen := map[int]bool{}
		for t := 0; t < n; t++ {
			v := rng.Intn(nVars)
			if seen[v] {
				continue
			}
			seen[v] = true
			term := vars[v]
			if rng.Intn(2) == 1 {
				term = term.Not()
			}
			sum.Add(term, int64(1+rng.Intn(5)))
		}
		// Tight-ish bounds: 40–70% of the total, so constraints both
		// propagate and conflict.
		bound := sum.Total() * int64(40+rng.Intn(31)) / 100
		s.AssertAtMost(sum, bound)
	}
	for c := 0; c < nCons/2; c++ {
		a, b2, cc := rng.Intn(nVars), rng.Intn(nVars), rng.Intn(nVars)
		s.AddClause(vars[a], vars[b2].Not(), vars[cc])
	}
}

// benchPB measures Check on the dense PB store; the expected status is
// asserted so -benchtime=1x is a correctness smoke.
func benchPB(b *testing.B, nVars, nCons int, seed int64) {
	// Determine the expected status once, outside the timed loop.
	ref := smt.NewSolver()
	pbInstance(ref, nVars, nCons, seed)
	want := ref.Check()
	if want == smt.Unknown {
		b.Fatal("pb bench instance unexpectedly unknown")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := smt.NewSolver()
		pbInstance(s, nVars, nCons, seed)
		if got := s.Check(); got != want {
			b.Fatalf("pb check: status %v, want %v", got, want)
		}
	}
}

func BenchmarkPBPropagateSmall(b *testing.B) { benchPB(b, 60, 90, 7) }
func BenchmarkPBPropagateLarge(b *testing.B) { benchPB(b, 140, 240, 11) }

// permuteLines shuffles the link lines of a spec among themselves, and
// its require lines likewise: another text of the same problem.
func permuteLines(text string, rng *rand.Rand) string {
	lines := strings.Split(text, "\n")
	for _, section := range []string{"link ", "require "} {
		var at []int
		for i, l := range lines {
			if strings.HasPrefix(l, section) {
				at = append(at, i)
			}
		}
		rng.Shuffle(len(at), func(i, k int) { lines[at[i]], lines[at[k]] = lines[at[k]], lines[at[i]] })
	}
	return strings.Join(lines, "\n")
}

// BenchmarkHitHTTP is the ledger's hit_path in one number: a solved
// 16-host problem (a 95 KB response, the ledger's average) re-posted
// over loopback HTTP by 2 closed-loop clients with its link and require
// lines permuted, so an op is parse, canonicalise, fingerprint, LRU read
// and the write of a stored response. B/op includes the client's own
// read of the body. Every iteration asserts the hit and its declared
// length.
func BenchmarkHitHTTP(b *testing.B) {
	prob, err := netgen.Generate(solverBenchConfig(16))
	if err != nil {
		b.Fatal(err)
	}
	prob.Thresholds = satThresholds(16)
	var sb strings.Builder
	if err := spec.WriteProblem(&sb, prob); err != nil {
		b.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 2, SolverWorkers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	post := func(text string) (xcache string, n, declared int64, err error) {
		resp, err := http.Post(srv.URL+"/v1/synthesize", "text/plain", strings.NewReader(text))
		if err != nil {
			return "", 0, 0, err
		}
		defer resp.Body.Close()
		n, err = io.Copy(io.Discard, resp.Body)
		return resp.Header.Get("X-Cache"), n, resp.ContentLength, err
	}
	if xcache, _, _, err := post(sb.String()); err != nil || xcache != "miss" {
		b.Fatalf("set-up solve: X-Cache %q, %v", xcache, err)
	}

	const clients = 2
	rng := rand.New(rand.NewSource(1))
	texts := make([]string, 16)
	for i := range texts {
		texts[i] = permuteLines(sb.String(), rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < b.N; i += clients {
				xcache, n, declared, err := post(texts[i%len(texts)])
				if err != nil || xcache != "hit" || declared != n {
					b.Errorf("op %d: X-Cache %q, %d bytes read, Content-Length %d, %v", i, xcache, n, declared, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
