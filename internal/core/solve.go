package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"configsynth/internal/isolation"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// ThresholdKind identifies one of the three slider constraints.
type ThresholdKind int8

// The three threshold constraints of Eq. (9).
const (
	ThresholdIsolation ThresholdKind = iota + 1
	ThresholdUsability
	ThresholdCost
)

// String names the threshold.
func (k ThresholdKind) String() string {
	switch k {
	case ThresholdIsolation:
		return "isolation"
	case ThresholdUsability:
		return "usability"
	case ThresholdCost:
		return "cost"
	default:
		return "unknown"
	}
}

// ThresholdConflictError reports an UNSAT result together with the
// unsat core over the three threshold constraints (the assumptions of
// paper Algorithm 1). An empty core means the hard constraints
// (connectivity requirements, invariants, user policies) conflict on
// their own.
type ThresholdConflictError struct {
	Core []ThresholdKind
}

// Error describes the conflict.
func (e *ThresholdConflictError) Error() string {
	if len(e.Core) == 0 {
		return "core: hard constraints (CR/IIC/UIC) are unsatisfiable regardless of thresholds"
	}
	names := make([]string, len(e.Core))
	for i, k := range e.Core {
		names[i] = k.String()
	}
	return fmt.Sprintf("core: thresholds unsatisfiable; conflicting constraints: %s",
		strings.Join(names, ", "))
}

// Design is a synthesized security configuration: the isolation pattern
// chosen for every flow plus the security-device placements on links,
// with the achieved scores.
type Design struct {
	// FlowPatterns maps each flow to its isolation pattern
	// (isolation.PatternNone for "no isolation").
	FlowPatterns map[usability.Flow]isolation.PatternID
	// Placements maps links to the device types deployed on them, after
	// redundancy pruning.
	Placements map[topology.LinkID][]isolation.DeviceID
	// Isolation is the achieved network isolation on the paper's 0–10
	// scale.
	Isolation float64
	// Usability is the achieved network usability on the 0–10 scale.
	Usability float64
	// Cost is the total deployment cost of the placements, in $K.
	Cost int64
	// HostIsolation reports the per-host isolation score I_j (0–10),
	// weighted by α between incoming and outgoing traffic (Eq. 2–3).
	HostIsolation map[topology.NodeID]float64
	// Exact is true when the design is a plain satisfying model or a
	// proven optimum; it is false when an optimization probe exhausted
	// its conflict budget, making the result a best-found (anytime)
	// answer rather than a proven optimum.
	Exact bool
}

// DeviceCount returns the total number of placed devices.
func (d *Design) DeviceCount() int {
	n := 0
	for _, devs := range d.Placements {
		n += len(devs)
	}
	return n
}

// PatternMix returns the fraction of flows per pattern (including
// PatternNone), on 0..1.
func (d *Design) PatternMix() map[isolation.PatternID]float64 {
	mix := make(map[isolation.PatternID]float64)
	if len(d.FlowPatterns) == 0 {
		return mix
	}
	for _, p := range d.FlowPatterns {
		mix[p]++
	}
	for k := range mix {
		mix[k] /= float64(len(d.FlowPatterns))
	}
	return mix
}

// extractDesign reads the model: chosen patterns, placed devices (pruned
// of redundancy), and achieved scores.
func (s *Synthesizer) extractDesign() *Design {
	d := &Design{
		FlowPatterns:  make(map[usability.Flow]isolation.PatternID, len(s.flows)),
		Placements:    make(map[topology.LinkID][]isolation.DeviceID),
		HostIsolation: make(map[topology.NodeID]float64),
	}
	P, D := len(s.patterns), len(s.devices)
	for fi, f := range s.flows {
		d.FlowPatterns[f] = isolation.PatternNone
		for pi, p := range s.patterns {
			if s.sol.Value(s.y[fi*P+pi]) {
				d.FlowPatterns[f] = p.ID
				break
			}
		}
	}
	// By link and then device, so each link's devices come out ascending.
	for i, on := range s.prunedPlacements(d.FlowPatterns) {
		if !on {
			continue
		}
		link, dev := topology.LinkID(i/D), s.devices[i%D]
		d.Placements[link] = append(d.Placements[link], dev.ID)
		if !s.isPreset(i) { // already deployed: no marginal cost
			d.Cost += dev.Cost
		}
	}
	s.fillScores(d)
	return d
}

// isPreset reports whether slot i of the l table is a placement the
// problem declares as already deployed.
func (s *Synthesizer) isPreset(i int) bool { return s.preset != nil && s.preset[i] }

// pairDev is one device requirement: the device on every route of the
// pair.
type pairDev struct {
	pair pairKey
	dev  isolation.DeviceID
}

// neededDevices derives, from the chosen flow patterns, which (pair,
// device) requirements the placements must cover.
func (s *Synthesizer) neededDevices(flowPatterns map[usability.Flow]isolation.PatternID) map[pairDev]bool {
	needed := make(map[pairDev]bool)
	for f, pid := range flowPatterns {
		if pid == isolation.PatternNone {
			continue
		}
		key := mkPair(f.Src, f.Dst)
		for _, dev := range s.prob.Catalog.DevicesFor(pid) {
			needed[pairDev{pair: key, dev: dev}] = true
		}
	}
	return needed
}

// covered checks whether the placement set (indexed like the l table)
// satisfies one (pair, device) requirement under the same semantics as
// the encoding: every route of the pair carries the device; for IPSec,
// both the head and tail windows of every route (tunnelWindows —
// overlapping on short routes, exactly as encodeTunnel asserts) carry a
// gateway.
func (s *Synthesizer) covered(pd pairDev, placed []bool) bool {
	T := s.prob.Options.TunnelSlackHops
	D, dev := len(s.devices), s.devPos(pd.dev)
	anyPlaced := func(links []topology.LinkID) bool {
		for _, link := range links {
			if placed[int(link)*D+dev] {
				return true
			}
		}
		return false
	}
	for _, route := range s.pairRoutes(pd.pair) {
		if pd.dev == isolation.IPSec {
			head, tail := tunnelWindows(route, T)
			if !anyPlaced(head) || !anyPlaced(tail) {
				return false
			}
			continue
		}
		if !anyPlaced(route) {
			return false
		}
	}
	return true
}

// prunedPlacements extracts the placed devices from the model and then
// greedily removes redundant ones (most expensive first) while keeping
// every needed (pair, device) requirement covered. The SMT model only
// guarantees feasibility within budget; pruning yields the
// cost-minimal-ish deployment the paper reports in its output figures.
// The result is indexed like the l table.
func (s *Synthesizer) prunedPlacements(flowPatterns map[usability.Flow]isolation.PatternID) []bool {
	D := len(s.devices)
	placed := make([]bool, len(s.l))
	var candidates []int
	for i, v := range s.l {
		if v.Valid() && s.sol.Value(v) {
			placed[i] = true
			candidates = append(candidates, i)
		}
	}
	needed := s.neededDevices(flowPatterns)

	// Deterministic order: expensive devices first, then link, then dev —
	// the order of the table, which a stable sort keeps within one cost.
	// Preplaced devices count as free: they sort last, so the pruner
	// removes paid placements first and keeps the existing deployment
	// whenever it covers a requirement.
	effCost := func(i int) int64 {
		if s.isPreset(i) {
			return 0
		}
		return s.devices[i%D].Cost
	}
	slices.SortStableFunc(candidates, func(i, j int) int { return cmp.Compare(effCost(j), effCost(i)) })
	for _, i := range candidates {
		placed[i] = false
		dev := s.devices[i%D].ID
		for pd := range needed {
			if pd.dev == dev && !s.covered(pd, placed) {
				placed[i] = true
				break
			}
		}
	}
	return placed
}

// fillScores computes the achieved network and per-host scores from the
// chosen patterns, using the paper's normalizations.
func (s *Synthesizer) fillScores(d *Design) {
	// extractDesign gave every flow a pattern, so nothing can be missing.
	d.Isolation, d.Usability, _ = networkScores(s.prob, d.FlowPatterns)
	s.fillHostIsolation(d)
}

// fillHostIsolation computes I_j per Eq. (2)–(3): the α-weighted blend of
// incoming and outgoing isolation, normalized to 0–10.
func (s *Synthesizer) fillHostIsolation(d *Design) {
	cat := s.prob.Catalog
	maxScore := float64(cat.MaxScore())
	// Ī_{i,j}: mean normalized isolation of flows i→j.
	type dirKey struct{ src, dst topology.NodeID }
	sums := make(map[dirKey]float64)
	counts := make(map[dirKey]int)
	for f, pid := range d.FlowPatterns {
		k := dirKey{f.Src, f.Dst}
		sums[k] += float64(cat.Score(pid)) / maxScore
		counts[k]++
	}
	alpha := float64(s.prob.Options.AlphaPct) / 100
	peers := make(map[topology.NodeID]map[topology.NodeID]bool)
	record := func(a, b topology.NodeID) {
		if peers[a] == nil {
			peers[a] = make(map[topology.NodeID]bool)
		}
		peers[a][b] = true
	}
	for k := range sums {
		record(k.src, k.dst)
		record(k.dst, k.src)
	}
	iBar := func(i, j topology.NodeID) float64 {
		k := dirKey{i, j}
		if counts[k] == 0 {
			return 0
		}
		return sums[k] / float64(counts[k])
	}
	for j, ps := range peers {
		var total float64
		for i := range ps {
			total += alpha*iBar(i, j) + (1-alpha)*iBar(j, i)
		}
		d.HostIsolation[j] = 10 * total / float64(len(ps))
	}
}

// IsUnsat reports whether err is a threshold conflict.
func IsUnsat(err error) bool {
	var tc *ThresholdConflictError
	return errors.As(err, &tc)
}
