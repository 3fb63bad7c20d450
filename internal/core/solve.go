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
	pids := make([]isolation.PatternID, len(s.flows)) // indexed like s.flows
	for fi, f := range s.flows {
		for pi, p := range s.patterns {
			if s.sol.Value(s.y[fi*P+pi]) {
				pids[fi] = p.ID
				break
			}
		}
		d.FlowPatterns[f] = pids[fi]
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
	// Every flow has a pattern, so nothing can be missing.
	d.Isolation, d.Usability, _ = networkScores(s.prob, d.FlowPatterns)
	s.fillHostIsolation(d, pids)
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

// fillHostIsolation computes I_j per Eq. (2)–(3): the α-weighted blend of
// incoming and outgoing isolation, normalized to 0–10. pids holds the
// pattern of each flow of s.flows. Every sum runs in one fixed order —
// flows by (src, dst, svc), then directed pairs by (src, dst) — so the
// scores are a function of the design, bit for bit.
func (s *Synthesizer) fillHostIsolation(d *Design, pids []isolation.PatternID) {
	cat := s.prob.Catalog
	maxScore := float64(cat.MaxScore())
	// Ī_{i,j}, the mean normalized isolation of the flows i→j: s.flows is
	// sorted, so the flows of one directed pair are one run of it, and
	// pairs[from[h]:from[h+1]] are the pairs out of h, by destination.
	type dirMean struct {
		src, dst topology.NodeID
		mean     float64
	}
	n := s.prob.Network.NumNodes()
	pairs := make([]dirMean, 0, len(s.flows))
	from := make([]int, n+1)
	for lo := 0; lo < len(s.flows); {
		f, sum, hi := s.flows[lo], 0.0, lo
		for ; hi < len(s.flows) && s.flows[hi].Src == f.Src && s.flows[hi].Dst == f.Dst; hi++ {
			sum += float64(cat.Score(pids[hi])) / maxScore
		}
		pairs = append(pairs, dirMean{f.Src, f.Dst, sum / float64(hi-lo)})
		from[f.Src+1] = len(pairs)
		lo = hi
	}
	for h := range n {
		from[h+1] = max(from[h+1], from[h]) // a host with no flows out
	}
	// I_j = 10 × the mean, over the hosts i that share a flow with j, of
	// α·Ī_{i,j} + (1−α)·Ī_{j,i}, an absent direction counting 0.
	alpha := float64(s.prob.Options.AlphaPct) / 100
	total, peers := make([]float64, n), make([]int, n)
	for _, p := range pairs {
		total[p.dst] += alpha * p.mean
		total[p.src] += (1 - alpha) * p.mean
		_, back := slices.BinarySearchFunc(pairs[from[p.dst]:from[p.dst+1]], p.src, func(q dirMean, src topology.NodeID) int {
			return cmp.Compare(q.dst, src)
		})
		if !back || p.src < p.dst { // a host pair is one peering, whichever way its flows run
			peers[p.src]++
			peers[p.dst]++
		}
	}
	for j, k := range peers {
		if k > 0 {
			d.HostIsolation[topology.NodeID(j)] = 10 * total[j] / float64(k)
		}
	}
}

// IsUnsat reports whether err is a threshold conflict.
func IsUnsat(err error) bool {
	var tc *ThresholdConflictError
	return errors.As(err, &tc)
}
