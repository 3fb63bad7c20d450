package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"configsynth/internal/isolation"
	"configsynth/internal/smt"
)

// MaxIsolation computes the maximum achievable network isolation (0–10
// scale) subject to a usability threshold (tenths of the 0–10 scale) and
// a cost budget, ignoring the problem's own isolation threshold. This is
// the query behind the paper's Fig. 3 trade-off curves. The optimum is
// found at slider resolution (0.1) by binary search over guarded
// threshold probes, so every probe benefits from the flow-assignment
// theory.
func (s *Synthesizer) MaxIsolation(usabilityTenths int, costBudget int64) (float64, *Design, error) {
	d, err := s.descend(ThresholdIsolation, []smt.Bool{s.guardUsability(usabilityTenths), s.guardCost(costBudget)})
	if err != nil {
		return 0, nil, err
	}
	return d.Isolation, d, nil
}

// MaxUsability computes the maximum achievable usability (0–10) subject
// to the given isolation threshold and cost budget.
func (s *Synthesizer) MaxUsability(isolationTenths int, costBudget int64) (float64, *Design, error) {
	d, err := s.descend(ThresholdUsability, []smt.Bool{s.guardIsolation(isolationTenths), s.guardCost(costBudget)})
	if err != nil {
		return 0, nil, err
	}
	return d.Usability, d, nil
}

// MinCost computes the minimum deployment cost that still satisfies the
// given isolation and usability thresholds.
func (s *Synthesizer) MinCost(isolationTenths, usabilityTenths int) (int64, *Design, error) {
	d, err := s.descend(ThresholdCost, []smt.Bool{s.guardIsolation(isolationTenths), s.guardUsability(usabilityTenths)})
	if err != nil {
		return 0, nil, err
	}
	return d.Cost, d, nil
}

// descend is the one optimisation descent: check the assumptions alone,
// then binary-search the threshold of the given kind over guarded
// probes. The search runs over a tightness v in [lo, hi] — the threshold
// itself, in tenths, for isolation and usability; the saving against
// the first design's cost for cost — so every query maximises. A
// satisfiable probe raises lo to what its design achieved (never below
// the probed value); a probe that blows its budget counts as
// unsatisfiable and marks the answer inexact.
func (s *Synthesizer) descend(kind ThresholdKind, assume []smt.Bool) (*Design, error) {
	best, err := s.checkExtract(assume)
	if err != nil {
		return nil, err
	}
	lo, hi, at := scoreOf(kind, best), int64(100), func(v int64) int64 { return v }
	if kind == ThresholdCost {
		first := best.Cost
		lo, hi, at = 0, first, func(v int64) int64 { return first - v }
	}
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		d, err := s.probe(append(append([]smt.Bool(nil), assume...), s.guardOf(kind, at(mid))))
		switch {
		case err == nil:
			d.Exact = best.Exact
			best = d
			lo = max(at(scoreOf(kind, d)), mid)
		case errors.Is(err, ErrBudgetExceeded):
			best.Exact = false
			fallthrough
		case IsUnsat(err):
			hi = mid - 1
		default:
			return nil, err
		}
	}
	return best, nil
}

// guardOf returns the guard that holds the threshold of the given kind
// at v or better.
func (s *Synthesizer) guardOf(kind ThresholdKind, v int64) smt.Bool {
	switch kind {
	case ThresholdIsolation:
		return s.guardIsolation(int(v))
	case ThresholdUsability:
		return s.guardUsability(int(v))
	default:
		return s.guardCost(v)
	}
}

// scoreOf is what a design achieved on the threshold of the given kind,
// in that threshold's unit: slider tenths rounded down, or cost.
func scoreOf(kind ThresholdKind, d *Design) int64 {
	switch kind {
	case ThresholdIsolation:
		return int64(d.Isolation * 10)
	case ThresholdUsability:
		return int64(d.Usability * 10)
	default:
		return d.Cost
	}
}

// checkExtract checks the assumptions and extracts a design on SAT.
func (s *Synthesizer) checkExtract(assume []smt.Bool) (*Design, error) {
	switch s.sol.Check(assume...) {
	case smt.Sat:
		d := s.extractDesign()
		d.Exact = true
		return d, nil
	case smt.Unknown:
		return nil, ErrBudgetExceeded
	default:
		return nil, &ThresholdConflictError{Core: s.coreKinds()}
	}
}

// probe is a checkExtract bounded by the probe budget: optimization
// probes are anytime, like an SMT solver run under a timeout.
func (s *Synthesizer) probe(assume []smt.Bool) (*Design, error) {
	if b := s.prob.Options.ProbeBudget; b > 0 {
		s.sol.SetBudget(b)
		defer s.restoreBudget()
	}
	return s.checkExtract(assume)
}

func (s *Synthesizer) restoreBudget() {
	if b := s.prob.Options.SolverBudget; b > 0 {
		s.sol.SetBudget(b)
	} else {
		s.sol.SetBudget(-1)
	}
}

// CheckAt checks satisfiability at the given thresholds, without
// changing the problem's own sliders: a what-if query answered
// incrementally against the already-encoded model. On success the
// returned design satisfies all three thresholds.
func (s *Synthesizer) CheckAt(th Thresholds) (*Design, error) {
	return s.checkExtract([]smt.Bool{
		s.guardIsolation(th.IsolationTenths),
		s.guardUsability(th.UsabilityTenths),
		s.guardCost(th.CostBudget),
	})
}

// AssistEntry is one row of the slider-assistance table (paper Table
// III): for a usability level, the best achievable isolation and a
// description of the configuration that achieves it.
type AssistEntry struct {
	// UsabilityTenths is the usability slider position (tenths of 0–10).
	UsabilityTenths int
	// IsolationTenths is the best achievable isolation at that position,
	// in tenths.
	IsolationTenths int
	// Mix is the fraction of flows per pattern in the best design.
	Mix map[isolation.PatternID]float64
	// Note is a human-readable summary of the expected outcome.
	Note string
}

// String renders the entry like the paper's Table III rows.
func (e AssistEntry) String() string {
	return fmt.Sprintf("Isolation score = %.1f : Usability score = %.1f — %s",
		float64(e.IsolationTenths)/10, float64(e.UsabilityTenths)/10, e.Note)
}

// Assist produces slider-assistance entries for the given usability
// levels (tenths), using the problem's cost budget, so an administrator
// can understand what each slider position means before running the
// final synthesis (paper §IV-A, Table III).
func (s *Synthesizer) Assist(usabilityLevels []int) ([]AssistEntry, error) {
	return AssistTable(s.prob, usabilityLevels, s.MaxIsolation)
}

// AssistTable builds the slider-assistance table for p from a
// MaxIsolation query, one row per usability level; the sequential and
// the portfolio synthesizer each pass their own.
func AssistTable(p *Problem, usabilityLevels []int, maxIsolation func(usabilityTenths int, costBudget int64) (float64, *Design, error)) ([]AssistEntry, error) {
	entries := make([]AssistEntry, 0, len(usabilityLevels))
	for _, level := range usabilityLevels {
		iso, design, err := maxIsolation(level, p.Thresholds.CostBudget)
		if IsUnsat(err) {
			entries = append(entries, AssistEntry{
				UsabilityTenths: level,
				Note:            "no satisfiable configuration at this usability level",
			})
			continue
		}
		if err != nil {
			return nil, err
		}
		mix := design.PatternMix()
		entries = append(entries, AssistEntry{
			UsabilityTenths: level,
			IsolationTenths: int(iso*10 + 0.5),
			Mix:             mix,
			Note:            DescribeMix(p.Catalog, mix),
		})
	}
	return entries, nil
}

// DescribeMix summarizes a pattern mix in the style of Table III.
func DescribeMix(cat *isolation.Catalog, mix map[isolation.PatternID]float64) string {
	type entry struct {
		id   isolation.PatternID
		frac float64
	}
	var entries []entry
	for id, frac := range mix {
		if frac > 0 {
			entries = append(entries, entry{id, frac})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].frac != entries[j].frac {
			return entries[i].frac > entries[j].frac
		}
		return entries[i].id < entries[j].id
	})
	parts := make([]string, 0, len(entries))
	for _, e := range entries {
		name := "no isolation"
		if e.id != isolation.PatternNone {
			if p, ok := cat.Pattern(e.id); ok {
				name = strings.ToLower(p.Name)
			}
		}
		parts = append(parts, fmt.Sprintf("%.0f%% of the flows: %s", e.frac*100, name))
	}
	if len(parts) == 0 {
		return "no flows"
	}
	return strings.Join(parts, ", ")
}
