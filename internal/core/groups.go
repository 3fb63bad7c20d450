package core

import (
	"fmt"

	"configsynth/internal/isolation"
	"configsynth/internal/policy"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// ExpandGroups materializes the paper's host-group argument (§V-B): in
// large networks many hosts share OS, services, and user level, live in
// the same subnet, and receive the same security configuration, so the
// model treats each such group as a single host. ExpandGroups goes the
// other way: it takes a problem whose hosts may stand for groups and a
// size per group host, and builds the expanded problem in which each
// group host becomes size-many replica hosts attached to the same
// routers, with flows, connectivity requirements, ranks, and flow-scoped
// policies cloned across replicas.
//
// Solving the grouped problem and verifying its design against the
// expanded one (after BroadcastDesign) is the executable form of the
// paper's claim that group-level synthesis is sound for the members.
func ExpandGroups(p *Problem, sizes map[topology.NodeID]int) (*Problem, map[topology.NodeID][]topology.NodeID, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	p = p.normalized()
	for id, n := range sizes {
		node, ok := p.Network.Node(id)
		if !ok || node.Kind != topology.Host {
			return nil, nil, fmt.Errorf("core: group %d is not a host", id)
		}
		if n < 1 {
			return nil, nil, fmt.Errorf("core: group %d has size %d", id, n)
		}
	}

	out := topology.New()
	members := make(map[topology.NodeID][]topology.NodeID)
	mapping := make(map[topology.NodeID][]topology.NodeID) // old -> new IDs

	// Recreate nodes; group hosts fan out into replicas.
	for id := topology.NodeID(0); int(id) < p.Network.NumNodes(); id++ {
		node, _ := p.Network.Node(id)
		switch {
		case node.Kind == topology.Router:
			mapping[id] = []topology.NodeID{out.AddRouter(node.Name)}
		case sizes[id] > 1:
			reps := make([]topology.NodeID, sizes[id])
			for i := range reps {
				reps[i] = out.AddHost(fmt.Sprintf("%s-%d", node.Name, i+1))
			}
			mapping[id] = reps
			members[id] = reps
		default:
			mapping[id] = []topology.NodeID{out.AddHost(node.Name)}
			members[id] = mapping[id]
		}
	}
	// Recreate links; a link touching a group host is cloned per
	// replica (each member gets its own access link, like the members
	// of a subnet).
	for _, l := range p.Network.Links() {
		for _, a := range mapping[l.A] {
			for _, b := range mapping[l.B] {
				if _, err := out.Connect(a, b); err != nil {
					return nil, nil, fmt.Errorf("core: expand link %d-%d: %w", l.A, l.B, err)
				}
			}
		}
	}

	expandFlow := func(f usability.Flow) []usability.Flow {
		var flows []usability.Flow
		for _, src := range mapping[f.Src] {
			for _, dst := range mapping[f.Dst] {
				if src != dst {
					flows = append(flows, usability.Flow{Src: src, Dst: dst, Svc: f.Svc})
				}
			}
		}
		return flows
	}

	expanded := &Problem{
		Network:    out,
		Catalog:    p.Catalog,
		Thresholds: p.Thresholds,
		Options:    p.Options,
	}
	seen := make(map[usability.Flow]bool)
	for _, f := range p.Flows {
		for _, nf := range expandFlow(f) {
			if !seen[nf] {
				seen[nf] = true
				expanded.Flows = append(expanded.Flows, nf)
			}
		}
	}
	reqs := usability.NewRequirements()
	for _, f := range p.Requirements.All() {
		for _, nf := range expandFlow(f) {
			reqs.Require(nf)
		}
	}
	expanded.Requirements = reqs

	ranks := usability.NewRanks()
	for _, f := range p.Flows {
		if r := p.Ranks.Rank(f); r != 1 {
			for _, nf := range expandFlow(f) {
				ranks.SetFlowRank(nf, r)
			}
		}
	}
	expanded.Ranks = ranks

	pols := policy.NewSet()
	for _, r := range p.Policies.All() {
		switch rule := r.(type) {
		case policy.ForbidPattern, policy.RequirePattern:
			pols.Add(r) // service-scoped: applies unchanged
		case policy.PinFlow:
			for _, nf := range expandFlow(rule.Flow) {
				pols.Add(policy.PinFlow{Flow: nf, Pattern: rule.Pattern, Negated: rule.Negated})
			}
		case policy.Implication:
			for _, fi := range expandFlow(rule.If) {
				for _, ft := range expandFlow(rule.Then) {
					pols.Add(policy.Implication{
						If: fi, IfPattern: rule.IfPattern,
						Then: ft, ThenPattern: rule.ThenPattern,
						ThenNegated: rule.ThenNegated,
					})
				}
			}
		default:
			return nil, nil, fmt.Errorf("core: cannot expand policy rule %T", r)
		}
	}
	expanded.Policies = pols
	return expanded, members, nil
}

// BroadcastDesign maps a design synthesized on a grouped problem onto
// the expanded problem: each group flow's pattern is copied to every
// replica flow, and devices placed on a link incident to a group host
// are replicated onto each member's corresponding link. Scores are
// recomputed on the expanded problem.
func BroadcastDesign(grouped *Problem, d *Design, expanded *Problem, members map[topology.NodeID][]topology.NodeID) (*Design, error) {
	grouped = grouped.normalized()
	expandedNorm := expanded.normalized()
	// Name-based node mapping: expanded nodes keep the grouped name
	// ("<name>") or carry a replica suffix ("<name>-<i>").
	byName := make(map[string]topology.NodeID, expandedNorm.Network.NumNodes())
	for id := topology.NodeID(0); int(id) < expandedNorm.Network.NumNodes(); id++ {
		n, _ := expandedNorm.Network.Node(id)
		byName[n.Name] = id
	}
	mapping := make(map[topology.NodeID][]topology.NodeID)
	for id := topology.NodeID(0); int(id) < grouped.Network.NumNodes(); id++ {
		n, _ := grouped.Network.Node(id)
		if reps, ok := members[id]; ok && len(reps) > 1 {
			mapping[id] = reps
			continue
		}
		nid, ok := byName[n.Name]
		if !ok {
			return nil, fmt.Errorf("core: node %q missing from expanded network", n.Name)
		}
		mapping[id] = []topology.NodeID{nid}
	}

	out := &Design{
		FlowPatterns:  make(map[usability.Flow]isolation.PatternID, len(d.FlowPatterns)),
		Placements:    make(map[topology.LinkID][]isolation.DeviceID, len(d.Placements)),
		HostIsolation: make(map[topology.NodeID]float64),
		Exact:         d.Exact,
	}
	for f, pid := range d.FlowPatterns {
		for _, src := range mapping[f.Src] {
			for _, dst := range mapping[f.Dst] {
				if src != dst {
					out.FlowPatterns[usability.Flow{Src: src, Dst: dst, Svc: f.Svc}] = pid
				}
			}
		}
	}
	for link, devs := range d.Placements {
		l, ok := grouped.Network.Link(link)
		if !ok {
			return nil, fmt.Errorf("core: design places devices on unknown link %d", link)
		}
		for _, a := range mapping[l.A] {
			for _, b := range mapping[l.B] {
				nl, ok := expandedNorm.Network.LinkBetween(a, b)
				if !ok {
					return nil, fmt.Errorf("core: expanded network lacks link %d-%d", a, b)
				}
				out.Placements[nl] = append(out.Placements[nl], devs...)
			}
		}
	}
	if err := ScoreDesign(expandedNorm, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ScoreDesign recomputes the network scores and the deployment cost of
// a design assembled outside a synthesizer — stitched from regions,
// broadcast over host groups — from its patterns and placements: the
// paper's normalizations (Eqs. 4, 6, 8) over p's full flow set, every
// placed device at full cost. It fails on a flow of p the design leaves
// out and on a device the catalog does not know.
func ScoreDesign(p *Problem, d *Design) error {
	p = p.normalized()
	var err error
	if d.Isolation, d.Usability, err = networkScores(p, d.FlowPatterns); err != nil {
		return err
	}
	d.Cost = 0
	for _, devs := range d.Placements {
		for _, id := range devs {
			dev, ok := p.Catalog.Device(id)
			if !ok {
				return fmt.Errorf("core: design places unknown device %d", id)
			}
			d.Cost += dev.Cost
		}
	}
	return nil
}

// networkScores computes network isolation and usability on the 0–10
// scale from a pattern per flow of the (normalized) problem.
func networkScores(p *Problem, patterns map[usability.Flow]isolation.PatternID) (iso, usa float64, err error) {
	cat := p.Catalog
	var isoNum, lossNum, sumRanks int64
	for _, f := range p.Flows {
		pid, ok := patterns[f]
		if !ok {
			return 0, 0, fmt.Errorf("core: flow %v missing from the design", f)
		}
		rank := int64(p.Ranks.Rank(f))
		isoNum += int64(cat.Score(pid))
		lossNum += rank * int64(100-cat.UsabilityPct(pid))
		sumRanks += rank
	}
	if maxIso := int64(len(p.Flows)) * int64(cat.MaxScore()); maxIso > 0 {
		iso = 10 * float64(isoNum) / float64(maxIso)
	}
	if sumRanks > 0 {
		usa = 10 * (1 - float64(lossNum)/float64(100*sumRanks))
	}
	return iso, usa, nil
}
