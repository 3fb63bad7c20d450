package core

import (
	"fmt"
	"sort"
	"strings"

	"configsynth/internal/isolation"
)

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
