package configsynth_test

import (
	"context"
	"os"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/decomp"
	"configsynth/internal/netgen"
	"configsynth/internal/portfolio"
	"configsynth/internal/service"
	"configsynth/internal/topology"
)

// Decomposition benchmarks: monolithic vs decomposed synthesis on the
// campus topologies decomp is built for, plus the batch variant sweep
// that exercises the region cache (the ledger's campus_batch workload
// measures the same sweep through the service). Run with:
//
//	go test -bench 'Decomp|BatchSweep|RoutesCampus' -benchtime 1x
//
// The 100-host pair runs by default; the 500- and 1000-host sizes only
// with CONFSYNTH_BENCH_LARGE=1 (a monolithic 1000-host encode alone is
// minutes of work — that gap is the point, but not one CI needs to
// re-prove on every push).

// campusProblem builds the seeded benchmark instance at a given size,
// in the satisfiable regime.
func campusProblem(b *testing.B, hosts int) *core.Problem {
	b.Helper()
	p, err := netgen.Campus(netgen.CampusConfig{
		Hosts: hosts,
		Seed:  int64(hosts),
		Thresholds: core.Thresholds{
			IsolationTenths: 30,
			UsabilityTenths: 40,
			CostBudget:      int64(hosts) * 20,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func largeOK(b *testing.B, hosts int) {
	b.Helper()
	if hosts > 100 && os.Getenv("CONFSYNTH_BENCH_LARGE") == "" {
		b.Skipf("set CONFSYNTH_BENCH_LARGE=1 to run the %d-host size", hosts)
	}
}

func BenchmarkDecompSolve(b *testing.B) {
	for _, hosts := range []int{100, 500, 1000} {
		prob := func(b *testing.B) *core.Problem {
			largeOK(b, hosts)
			return campusProblem(b, hosts)
		}
		b.Run(sizeName("mono", hosts), func(b *testing.B) {
			p := prob(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				syn, err := portfolio.New(p, 4)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := syn.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sizeName("decomp", hosts), func(b *testing.B) {
			p := prob(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh solver per iteration: this measures the cold
				// decomposed solve, not the cache (BenchmarkBatchSweep
				// measures that).
				s := decomp.New(decomp.Options{Workers: 4})
				res, err := s.Solve(context.Background(), p)
				if err != nil {
					b.Fatal(err)
				}
				if res.Fallback {
					b.Fatalf("campus did not decompose: %s", res.FallbackReason)
				}
				if res.Unsat {
					b.Fatalf("benchmark instance unsat (region %s)", res.ConflictRegion)
				}
			}
		})
	}
}

// BenchmarkBatchSweep measures the variant sweep the batch API runs: 20
// budget variants of one campus through a shared region cache. The
// first variant is the only cold one; iterations report the amortized
// per-variant cost and assert the >50%-hit-rate property the batch API
// depends on.
func BenchmarkBatchSweep(b *testing.B) {
	p := campusProblem(b, 100)
	const variants = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := decomp.New(decomp.Options{Workers: 4})
		for v := 0; v < variants; v++ {
			q := *p
			q.Thresholds.CostBudget = p.Thresholds.CostBudget + int64(10*v)
			res, err := s.Solve(context.Background(), &q)
			if err != nil {
				b.Fatal(err)
			}
			if res.Unsat {
				b.Fatalf("variant %d unsat (region %s)", v, res.ConflictRegion)
			}
		}
		cs := s.CacheStats()
		if cs.Hits <= cs.Misses {
			b.Fatalf("region hit rate <= 50%%: hits=%d misses=%d", cs.Hits, cs.Misses)
		}
		b.ReportMetric(float64(cs.Hits)/float64(cs.Hits+cs.Misses), "hit-rate")
	}
}

// BenchmarkDecompAllHit measures what a decomposed solve costs when the
// cache already holds its answer: a budget-only variant of a campus the
// solver has seen. The stitched design does not depend on the budget,
// so what is left is validation, one sorted view of the flows, the
// budget-free fingerprint, one cache read and the budget check — the
// floor under every budget variant of a batch. An edit variant still
// partitions, splits, fingerprints its regions and stitches.
func BenchmarkDecompAllHit(b *testing.B) {
	p := campusProblem(b, 100)
	s := decomp.New(decomp.Options{Workers: 4})
	if _, err := s.Solve(context.Background(), p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := *p
		q.Thresholds.CostBudget = p.Thresholds.CostBudget + int64(10*(1+i%20))
		res, err := s.Solve(context.Background(), &q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Unsat || res.Misses != 0 {
			b.Fatalf("variant %d: unsat=%v misses=%d, want a stitched design from cache hits alone", i, res.Unsat, res.Misses)
		}
	}
}

// BenchmarkDecompBudgetVariant measures a budget-only variant of the
// 100-host campus through the service, from Submit to its Result: the
// admission (one sorted view of the flows, validation, fingerprint), the
// queue, the decomposed solve answered from the stored stitch, and the
// rendering of the result — what the ledger's campus_batch times per
// budget variant. Every variant's budget is new, so none is a result
// cache hit.
func BenchmarkDecompBudgetVariant(b *testing.B) {
	p := campusProblem(b, 100)
	svc := service.New(service.Config{Workers: 1, SolverWorkers: 1})
	defer svc.Close()
	submit := func(budget int64) *service.Result {
		q := *p
		q.Thresholds.CostBudget = budget
		job, err := svc.Submit(&q, service.SubmitOptions{Mode: service.ModeDecomp})
		if err != nil {
			b.Fatal(err)
		}
		<-job.Done()
		res, err := job.Result()
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	submit(p.Thresholds.CostBudget)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := submit(p.Thresholds.CostBudget + int64(1+i))
		if res.Status != "sat" || res.Cached || res.Decomp == nil || res.Decomp.Misses != 0 {
			b.Fatalf("variant %d: status %s, cached %v, decomp %+v; want a fresh job on a stored stitch", i, res.Status, res.Cached, res.Decomp)
		}
	}
}

var benchRoutes []topology.Route

// BenchmarkRoutesCampus100 enumerates every flow pair of the 100-host
// campus in both directions through a fresh route table: what one
// decomposed solve, encode or verification pays for its routes.
func BenchmarkRoutesCampus100(b *testing.B) {
	p := campusProblem(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table := topology.NewRouteTable(p.Network, p.Options.Routes)
		for _, f := range p.Flows {
			benchRoutes, _ = table.Routes(f.Src, f.Dst)
			benchRoutes, _ = table.Routes(f.Dst, f.Src)
		}
	}
}

func sizeName(kind string, hosts int) string {
	switch hosts {
	case 100:
		return kind + "/h100"
	case 500:
		return kind + "/h500"
	default:
		return kind + "/h1000"
	}
}
