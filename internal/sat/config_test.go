package sat

import (
	"testing"
	"time"
)

// php encodes the pigeonhole principle PHP(pigeons, holes): every pigeon
// sits in some hole and no hole holds two pigeons. Unsatisfiable whenever
// pigeons > holes, and exponentially hard for CDCL — the standard
// long-running UNSAT instance.
func php(t *testing.T, s *Solver, pigeons, holes int) {
	t.Helper()
	vars := make([][]Var, pigeons)
	for p := range vars {
		vars[p] = make([]Var, holes)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = PosLit(vars[p][h])
		}
		if err := s.AddClause(lits...); err != nil {
			t.Fatal(err)
		}
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				if err := s.AddClause(NegLit(vars[p1][h]), NegLit(vars[p2][h])); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestInterruptLatency checks the portfolio cancellation contract: a
// solver stuck on a hard UNSAT instance must abandon Solve promptly
// after Interrupt — well within one restart window.
func TestInterruptLatency(t *testing.T) {
	s := New()
	php(t, s, 10, 9)

	done := make(chan Status, 1)
	go func() { done <- s.Solve() }()

	// Let the search dig in, then cancel.
	time.Sleep(100 * time.Millisecond)
	select {
	case st := <-done:
		t.Fatalf("PHP(10,9) finished in under 100ms with status %v; instance too easy for the latency test", st)
	default:
	}
	start := time.Now()
	s.Interrupt()
	select {
	case st := <-done:
		if st != Unknown {
			t.Fatalf("interrupted Solve returned %v, want Unknown", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("solver did not stop within 5s of Interrupt")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("interrupt latency %v, want well under a restart window", elapsed)
	}
	if got := s.Stats().Interrupts; got != 1 {
		t.Errorf("Interrupts = %d, want 1", got)
	}

	// The flag is sticky until cleared: the next Solve must refuse too.
	if st := s.Solve(); st != Unknown {
		t.Errorf("Solve with pending interrupt = %v, want Unknown", st)
	}
	s.ClearInterrupt()
	if s.Interrupted() {
		t.Error("ClearInterrupt did not clear the flag")
	}
}

// TestConfigDeterminism checks that a fixed Config yields a bit-identical
// search: two solvers on the same formula report identical counters.
func TestConfigDeterminism(t *testing.T) {
	cfgs := []Config{
		{},
		{Seed: 7, RandomFreqMilli: 50},
		{Seed: 7, RandomFreqMilli: 50, PhaseTrue: true, Restart: RestartGeometric},
	}
	for _, cfg := range cfgs {
		var prev Stats
		for run := 0; run < 2; run++ {
			s := NewWith(cfg)
			php(t, s, 7, 6)
			if st := s.Solve(); st != Unsat {
				t.Fatalf("PHP(7,6) = %v, want Unsat", st)
			}
			got := s.Stats()
			if run == 1 && got != prev {
				t.Errorf("cfg %+v: run stats differ:\n  %+v\n  %+v", cfg, got, prev)
			}
			prev = got
		}
	}
}

// TestRandomDecisionsTaken checks the RandomFreqMilli knob actually
// diversifies and its work is counted.
func TestRandomDecisionsTaken(t *testing.T) {
	s := NewWith(Config{Seed: 3, RandomFreqMilli: 200})
	php(t, s, 7, 6)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("PHP(7,6) = %v, want Unsat", st)
	}
	st := s.Stats()
	if st.RandomDecisions == 0 {
		t.Error("RandomFreqMilli=200 made no random decisions")
	}
	if st.RandomDecisions > st.Decisions {
		t.Errorf("RandomDecisions %d exceeds Decisions %d", st.RandomDecisions, st.Decisions)
	}
}

// TestRestartSchedules checks both schedules solve and attribute their
// restarts to the right counter.
func TestRestartSchedules(t *testing.T) {
	for _, cfg := range []Config{{Restart: RestartLuby}, {Restart: RestartGeometric}} {
		s := NewWith(cfg)
		php(t, s, 8, 7)
		if st := s.Solve(); st != Unsat {
			t.Fatalf("%v: PHP(8,7) = %v, want Unsat", cfg.Restart, st)
		}
		st := s.Stats()
		if st.Restarts == 0 {
			t.Fatalf("%v: no restarts on PHP(8,7)", cfg.Restart)
		}
		switch cfg.Restart {
		case RestartGeometric:
			if st.GeomRestarts != st.Restarts || st.LubyRestarts != 0 {
				t.Errorf("geometric: got luby=%d geom=%d total=%d", st.LubyRestarts, st.GeomRestarts, st.Restarts)
			}
		default:
			if st.LubyRestarts != st.Restarts || st.GeomRestarts != 0 {
				t.Errorf("luby: got luby=%d geom=%d total=%d", st.LubyRestarts, st.GeomRestarts, st.Restarts)
			}
		}
	}
}

// TestPhaseTrue checks the initial-polarity knob: on an unconstrained
// variable the first model follows the configured phase.
func TestPhaseTrue(t *testing.T) {
	for _, phase := range []bool{false, true} {
		s := NewWith(Config{PhaseTrue: phase})
		v := s.NewVar()
		w := s.NewVar()
		if err := s.AddClause(PosLit(v), PosLit(w)); err != nil {
			t.Fatal(err)
		}
		if st := s.Solve(); st != Sat {
			t.Fatalf("trivial formula = %v", st)
		}
		got := s.ModelValue(PosLit(v)) == True
		if got != phase {
			t.Errorf("PhaseTrue=%v: first branched variable modeled %v", phase, got)
		}
	}
}

// TestDecisionCap checks MaxDecisions: Solve stops with Unknown after
// exactly the capped number of lifetime decisions, every later Solve
// answers Unknown without another decision, and a cap the search never
// reaches changes nothing.
func TestDecisionCap(t *testing.T) {
	const fuel = 500
	s := NewWith(Config{MaxDecisions: fuel})
	php(t, s, 8, 7)
	if st := s.Solve(); st != Unknown {
		t.Fatalf("PHP(8,7) under a %d-decision cap = %v, want Unknown", fuel, st)
	}
	if got := s.Stats().Decisions; got != fuel {
		t.Fatalf("stopped after %d decisions, want exactly %d", got, fuel)
	}
	for i, assume := range [][]Lit{nil, {PosLit(0)}, {NegLit(0), NegLit(1)}} {
		if st := s.Solve(assume...); st != Unknown {
			t.Fatalf("Solve %d after the cap = %v, want Unknown", i+2, st)
		}
		if got := s.Stats().Decisions; got != fuel {
			t.Fatalf("Solve %d after the cap decided again: %d decisions", i+2, got)
		}
	}

	free := New()
	php(t, free, 7, 6)
	if st := free.Solve(); st != Unsat {
		t.Fatalf("PHP(7,6) = %v, want Unsat", st)
	}
	want := free.Stats().Counters
	roomy := NewWith(Config{MaxDecisions: want.Decisions + 1})
	php(t, roomy, 7, 6)
	if st := roomy.Solve(); st != Unsat {
		t.Fatalf("PHP(7,6) under a cap it never reaches = %v, want Unsat", st)
	}
	if got := roomy.Stats().Counters; got != want {
		t.Errorf("a cap the search never reaches changed it: %+v, want %+v", got, want)
	}
}
