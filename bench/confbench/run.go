package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Op classes. Every op belongs to one; latency metrics are taken over a
// class, so a workload's cold start does not leak into its median.
const (
	classMain  = "main"  // the population of p50/p95/p99
	classCold  = "cold"  // campus_batch base variant, cluster_durable first pass
	classDirty = "dirty" // campus_batch edit variants
)

// opRecord is what a client keeps per completed op.
type opRecord struct {
	opID      int // joins the record to its spans and its stashed response
	class     string
	ms        float64 // client-side latency
	reqBytes  int
	respBytes int
	traced    bool   // spans were recorded around this op
	hop       bool   // answered by a node other than the one the client is pinned to
	err       string // non-empty: the op failed (transport, status, or checker)
}

// roundResult is one round: a fresh system, its set-up, and the fixed
// list of measured ops.
type roundResult struct {
	setupOnly bool // stop where the measured window would begin
	setupS    float64
	wallS     float64
	end       time.Time // when the measured window closed
	drainMS   float64   // cluster_durable: window close to every follower caught up
	ops       []opRecord
}

// runConfig is what the command line fixes for one workload run.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	rounds    int    // 0: the workload's own round count (tests run fewer)
	workloads string // manifest directory
	outDir    string
}

// run accumulates one workload run: several rounds, the counter deltas
// over their measured windows, and (traced) the spans.
type run struct {
	cfg      runConfig
	man      *manifest
	rounds   []roundResult
	setups   []float64 // set-up time of every round and every set-up-only repetition
	counters map[string]float64
	samples  map[string][]float64 // per-op layer quantities not taken from spans
	tr       *tracer              // nil in an untraced run
	nextOp   atomic.Int64
	notes    []string
}

// scale converts a reference op count (sized for the reference run
// length) to this run's --seconds. Counts are fixed by the command line
// alone, so a run repeats its op counts exactly.
func (r *run) scale(ref int) int {
	n := int(float64(ref)*r.cfg.seconds/referenceSeconds + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// referenceSeconds is the run length the reference op counts of the
// workloads are sized for on a 2-core machine.
const referenceSeconds = 12

// rng derives a generator for one purpose from the run seed: order and
// line permutation only — which instances run is fixed by the manifest.
func (r *run) rng(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(r.cfg.seed*1000003 + purpose))
}

// half returns tr for every second op of a round and nil for the
// others, alternating between rounds, so that in a traced run each op
// is measured with and without span recording inside the same windows:
// whatever else the machine is doing hits both halves alike, and the
// difference in latency is the tracing overhead.
func (r *run) half(tr *tracer, op int) *tracer {
	if (op+len(r.rounds))%2 == 0 {
		return tr
	}
	return nil
}

// opID hands out span op identifiers.
func (r *run) opID() int { return int(r.nextOp.Add(1)) }

// statser reads the counters of the system under test.
type statser func() (map[string]float64, error)

// measure runs the measured window of a round: set-up ends here. It
// takes the counter, allocation and CPU snapshots around the window,
// drives the closed-loop clients, and records wall time and ops.
// next hands a client its next op index; do runs it.
func (r *run) measure(rd *roundResult, roundStart time.Time, stats statser, clients int, next func(client int) (int, bool), do func(client, op int) opRecord) error {
	rd.setupS = time.Since(roundStart).Seconds()
	if rd.setupOnly {
		return errSetupOnly
	}
	before, err := stats()
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()

	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []opRecord
			for {
				i, ok := next(c)
				if !ok {
					break
				}
				mine = append(mine, do(c, i))
			}
			mu.Lock()
			rd.ops = append(rd.ops, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	rd.end = time.Now()
	rd.wallS = rd.end.Sub(t0).Seconds()

	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	after, err := stats()
	if err != nil {
		return err
	}
	for k, v := range after {
		r.counters[k] += v - before[k]
	}
	r.counters["mallocs"] += float64(m1.Mallocs - m0.Mallocs)
	r.counters["alloc_bytes"] += float64(m1.TotalAlloc - m0.TotalAlloc)
	r.counters["gc_pause_ns"] += float64(m1.PauseTotalNs - m0.PauseTotalNs)
	r.counters["cpu_s"] += cpu1 - cpu0
	return nil
}

// errSetupOnly ends a round that was only run for its set-up time.
var errSetupOnly = errors.New("set-up only")

// sharedQueue hands ops 0..n-1 to whichever client asks next.
func sharedQueue(n int) func(int) (int, bool) {
	var next atomic.Int64
	return func(int) (int, bool) {
		i := int(next.Add(1)) - 1
		return i, i < n
	}
}

// ownQueues gives client c the ops c, c+clients, c+2*clients, ...
func ownQueues(n, clients int) func(int) (int, bool) {
	pos := make([]int, clients)
	return func(c int) (int, bool) {
		i := pos[c]*clients + c
		pos[c]++
		return i, i < n
	}
}

// forEach calls fn(0..n-1) on every core. The answer checks after a
// window are independent of each other and, on the larger problems, cost
// as much CPU as the window itself.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// fail marks an op failed.
func (o *opRecord) fail(format string, args ...any) {
	if o.err == "" {
		o.err = fmt.Sprintf(format, args...)
	}
}

// numClients is the closed-loop client count: one per core up to two.
func numClients() int { return min(2, runtime.NumCPU()) }

// latencies returns the latencies of a class over every round.
func (r *run) latencies(class string, keep func(opRecord) bool) []float64 {
	var out []float64
	for _, rd := range r.rounds {
		for _, o := range rd.ops {
			if o.class == class && o.err == "" && (keep == nil || keep(o)) {
				out = append(out, o.ms)
			}
		}
	}
	return out
}

// counts returns attempted and failed ops over every round.
func (r *run) counts() (attempted, failed int) {
	for _, rd := range r.rounds {
		for _, o := range rd.ops {
			attempted++
			if o.err != "" {
				failed++
			}
		}
	}
	return attempted, failed
}

// firstFailures returns up to n failure messages for the report.
func (r *run) firstFailures(n int) []string {
	var out []string
	for i, rd := range r.rounds {
		for _, o := range rd.ops {
			if o.err != "" && len(out) < n {
				out = append(out, fmt.Sprintf("round %d: %s", i, o.err))
			}
		}
	}
	return out
}
