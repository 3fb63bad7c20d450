// Package decomp scales synthesis past the paper's ~100-host ceiling by
// cutting the topology at routers into independently solvable regions,
// solving each region's slice of the problem on the existing portfolio
// pool, and stitching the per-region designs back into one global
// configuration.
//
// The decomposition partitions the *flows*, not just the nodes: every
// flow whose endpoints share a region becomes part of that region's
// interior subproblem, and cross-region flows are grouped per region
// pair into boundary subproblems. Each subproblem's network is the
// subgraph touched by the global routes of its own flows, so device
// placements chosen locally are placements on real global links and the
// union of all subproblem designs is a global design.
//
// Soundness: network isolation and usability are flow-count- and
// rank-weighted averages over flows (paper Eq. 4 and 8), so any
// partition of the flow set that achieves Th_I and Th_U per part
// achieves them globally. Cost is additive over placed devices, so the
// stitched deployment's cost — recomputed over the deduplicated union of
// placements — is checked once against Th_C. SAT answers are therefore
// sound (and re-verifiable via core.Verify); UNSAT answers are
// conservative, except when a region's hard constraints (CR/IIC/UIC, a
// subset of the global ones) conflict on their own, which is a genuine
// global UNSAT.
//
// Caching: every subproblem is solved without the cost budget, so the
// stitched and completed design does not depend on it either. The
// solver's one cache keeps each region's answer under its subproblem
// fingerprint and each problem's stitch, the root of its region DAG,
// under the fingerprint of the problem with its budget zeroed. A
// budget-only variant of a problem seen before is one cache read and a
// comparison of the stored design's cost with its budget; an edit
// re-solves only the regions whose fingerprints it changed.
package decomp

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"configsynth/internal/core"
	"configsynth/internal/policy"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// Region is one partition cell: a connected cluster of host-bearing
// routers plus the hosts attached to them. Transit routers (no hosts)
// belong to no region; they form the shared backbone the partitioner
// cuts at.
type Region struct {
	// ID indexes the region in the partition (dense, deterministic:
	// regions are ordered by their smallest router ID).
	ID int
	// Routers are the region's host-bearing routers, ascending.
	Routers []topology.NodeID
	// Hosts are the hosts attached to those routers, ascending.
	Hosts []topology.NodeID
}

// minRegionHosts is the host floor of a region: a smaller one is merged
// into a neighbour, since a single-host fragment is not worth a
// subproblem.
const minRegionHosts = 2

// PartitionOptions is empty: the partitioner has no knobs.
//
// Deprecated: call Partition(net). The type is kept only so that a
// caller written as Partition(net, PartitionOptions{}) still compiles.
type PartitionOptions struct{}

// Partition cuts the topology at transit routers: routers with at least
// one attached host are grouped into connected components (following
// only links between host-bearing routers), each component with its
// hosts becoming a region. Routers without hosts — the backbone — belong
// to no region and are shared by boundary subproblems. A topology whose
// host-bearing routers form one component yields a single region, which
// Solve treats as "not decomposable" and solves monolithically. Regions
// below the host floor are merged (mergeSmall).
func Partition(net *topology.Network, _ ...PartitionOptions) []Region {
	// hostRouter[r] = hosts attached to router r.
	hostsOf := make(map[topology.NodeID][]topology.NodeID)
	for _, h := range net.Hosts() {
		for _, l := range net.Links() {
			var peer topology.NodeID = -1
			if l.A == h {
				peer = l.B
			} else if l.B == h {
				peer = l.A
			}
			if peer < 0 {
				continue
			}
			if n, ok := net.Node(peer); ok && n.Kind == topology.Router {
				hostsOf[peer] = append(hostsOf[peer], h)
			}
		}
	}

	// Union-find over host-bearing routers, united by direct links.
	parent := make(map[topology.NodeID]topology.NodeID, len(hostsOf))
	for r := range hostsOf {
		parent[r] = r
	}
	var find func(topology.NodeID) topology.NodeID
	find = func(x topology.NodeID) topology.NodeID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b topology.NodeID) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for _, l := range net.Links() {
		_, aHost := parent[l.A]
		_, bHost := parent[l.B]
		if aHost && bHost {
			union(l.A, l.B)
		}
	}

	groups := make(map[topology.NodeID][]topology.NodeID)
	for r := range parent {
		groups[find(r)] = append(groups[find(r)], r)
	}
	roots := make([]topology.NodeID, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })

	regions := make([]Region, 0, len(roots))
	for _, root := range roots {
		var reg Region
		reg.Routers = append(reg.Routers, groups[root]...)
		sort.Slice(reg.Routers, func(i, j int) bool { return reg.Routers[i] < reg.Routers[j] })
		for _, r := range reg.Routers {
			reg.Hosts = append(reg.Hosts, hostsOf[r]...)
		}
		sort.Slice(reg.Hosts, func(i, j int) bool { return reg.Hosts[i] < reg.Hosts[j] })
		regions = append(regions, reg)
	}

	regions = mergeSmall(regions)
	for i := range regions {
		regions[i].ID = i
	}
	return regions
}

// mergeSmall folds regions below the host floor into another region,
// keeping the result deterministic: the first region below the floor
// merges into the smallest other region, repeatedly.
func mergeSmall(regions []Region) []Region {
	for len(regions) > 1 {
		victim := slices.IndexFunc(regions, func(r Region) bool { return len(r.Hosts) < minRegionHosts })
		if victim < 0 {
			break
		}
		target := smallest(regions, victim)
		merged := Region{
			Routers: append(append([]topology.NodeID(nil), regions[target].Routers...), regions[victim].Routers...),
			Hosts:   append(append([]topology.NodeID(nil), regions[target].Hosts...), regions[victim].Hosts...),
		}
		sort.Slice(merged.Routers, func(i, j int) bool { return merged.Routers[i] < merged.Routers[j] })
		sort.Slice(merged.Hosts, func(i, j int) bool { return merged.Hosts[i] < merged.Hosts[j] })
		lo, hi := victim, target
		if lo > hi {
			lo, hi = hi, lo
		}
		out := make([]Region, 0, len(regions)-1)
		out = append(out, regions[:lo]...)
		out = append(out, merged)
		out = append(out, regions[lo+1:hi]...)
		out = append(out, regions[hi+1:]...)
		regions = out
	}
	return regions
}

// smallest returns the index of the region with the fewest hosts,
// skipping the given index; ties break on lower index.
func smallest(regions []Region, skip int) int {
	best := -1
	for i, r := range regions {
		if i == skip {
			continue
		}
		if best < 0 || len(r.Hosts) < len(regions[best].Hosts) {
			best = i
		}
	}
	return best
}

// Subproblem is one independently solvable slice of a problem: a region
// interior (the flows within one region) or a region-pair boundary (the
// flows crossing between two regions). Its Prob is a self-contained
// core.Problem over the subgraph its flows' global routes touch, with
// node and link IDs remapped densely; ToGlobalNode maps back.
type Subproblem struct {
	// Key names the subproblem: "r<id>" for interiors, "x<a>-<b>" for
	// boundaries.
	Key string
	// Boundary is true for region-pair subproblems.
	Boundary bool
	// RegionA and RegionB are the region IDs involved (RegionB is -1 for
	// interiors).
	RegionA, RegionB int
	// Prob is the local problem. Its isolation and usability thresholds
	// are the global ones (threshold projection: per-part satisfaction of
	// a weighted average implies global satisfaction); its cost budget is
	// zeroed because subproblems are solved with MinCost and the budget
	// check happens once, on the stitched union.
	Prob *core.Problem
	// ToGlobalNode maps local node IDs back to global ones.
	ToGlobalNode []topology.NodeID
	// Deps are the keys of subproblems whose designs this one builds on:
	// a boundary depends on its two endpoint interiors, whose placements
	// it receives as preplacements.
	Deps []string
}

// ErrNotDecomposable reports a problem the splitter cannot soundly cut:
// Solve falls back to a monolithic solve.
var ErrNotDecomposable = errors.New("decomp: problem is not decomposable")

// interiorKey and boundaryKey name subproblems.
func interiorKey(r int) string { return "r" + strconv.Itoa(r) }
func boundaryKey(a, b int) string {
	if a > b {
		a, b = b, a
	}
	return "x" + strconv.Itoa(a) + "-" + strconv.Itoa(b)
}

// groupID identifies a flow group: an interior region or a boundary
// pair (a < b, b = -1 for interiors).
type groupID struct{ a, b int }

// Split cuts a problem along a partition into subproblems. It returns
// ErrNotDecomposable when a policy rule couples flows across
// subproblems (an Implication between flows of different groups), or
// when fewer than two subproblems result.
func Split(p *core.Problem, regions []Region) ([]*Subproblem, error) {
	return split(p, regions, topology.NewRouteTable(p.Network, p.Options.Routes))
}

// split is Split over the caller's table of p's global routes, which
// Solve goes on to share with the post-stitch placement completion.
func split(p *core.Problem, regions []Region, routes *topology.RouteTable) ([]*Subproblem, error) {
	regionOf := make(map[topology.NodeID]int)
	for _, reg := range regions {
		for _, h := range reg.Hosts {
			regionOf[h] = reg.ID
		}
	}

	groupOf := func(f usability.Flow) (groupID, error) {
		ra, okA := regionOf[f.Src]
		rb, okB := regionOf[f.Dst]
		if !okA || !okB {
			return groupID{}, fmt.Errorf("%w: flow %v touches a host outside every region", ErrNotDecomposable, f)
		}
		if ra == rb {
			return groupID{a: ra, b: -1}, nil
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		return groupID{a: ra, b: rb}, nil
	}

	groups := make(map[groupID][]usability.Flow)
	for _, f := range p.Flows {
		g, err := groupOf(f)
		if err != nil {
			return nil, err
		}
		groups[g] = append(groups[g], f)
	}
	if len(groups) < 2 {
		return nil, fmt.Errorf("%w: all flows fall into one subproblem", ErrNotDecomposable)
	}

	// Policies: pattern-level rules apply to every subproblem (they
	// constrain each flow independently); flow-level rules land in the
	// owning subproblem, and an implication spanning two subproblems
	// couples them, defeating independent solving.
	var global []policy.Rule
	perGroup := make(map[groupID][]policy.Rule)
	if p.Policies != nil {
		for _, r := range p.Policies.All() {
			switch rule := r.(type) {
			case policy.ForbidPattern, policy.RequirePattern:
				global = append(global, r)
			case policy.PinFlow:
				g, err := groupOf(rule.Flow)
				if err != nil {
					return nil, err
				}
				perGroup[g] = append(perGroup[g], r)
			case policy.Implication:
				gi, err := groupOf(rule.If)
				if err != nil {
					return nil, err
				}
				gt, err := groupOf(rule.Then)
				if err != nil {
					return nil, err
				}
				if gi != gt {
					return nil, fmt.Errorf("%w: implication couples flows across subproblems", ErrNotDecomposable)
				}
				perGroup[gi] = append(perGroup[gi], r)
			default:
				return nil, fmt.Errorf("%w: unsupported policy rule %T", ErrNotDecomposable, r)
			}
		}
	}

	ids := make([]groupID, 0, len(groups))
	for g := range groups {
		ids = append(ids, g)
	}
	sort.Slice(ids, func(i, j int) bool {
		if (ids[i].b < 0) != (ids[j].b < 0) {
			return ids[i].b < 0 // interiors first
		}
		if ids[i].a != ids[j].a {
			return ids[i].a < ids[j].a
		}
		return ids[i].b < ids[j].b
	})

	hasInterior := make(map[int]bool)
	for _, g := range ids {
		if g.b < 0 {
			hasInterior[g.a] = true
		}
	}

	subs := make([]*Subproblem, 0, len(ids))
	for _, g := range ids {
		sub, err := extract(p, routes, g, groups[g], append(append([]policy.Rule(nil), global...), perGroup[g]...))
		if err != nil {
			return nil, err
		}
		if g.b >= 0 {
			for _, r := range []int{g.a, g.b} {
				if hasInterior[r] {
					sub.Deps = append(sub.Deps, interiorKey(r))
				}
			}
		}
		subs = append(subs, sub)
	}
	return subs, nil
}

// extract builds one subproblem: the subgraph touched by the global
// routes of the group's flows, remapped to dense local IDs in ascending
// global order — a monotone remap, so route enumeration on the local
// network reproduces the global routes (shortest-first, ties by link
// ID) restricted to these pairs.
func extract(p *core.Problem, global *topology.RouteTable, g groupID, flows []usability.Flow, rules []policy.Rule) (*Subproblem, error) {
	type pair struct{ a, b topology.NodeID }
	pairs := make(map[pair]bool)
	for _, f := range flows {
		a, b := f.Src, f.Dst
		if a > b {
			a, b = b, a
		}
		pairs[pair{a, b}] = true
	}

	nodeSet := make(map[topology.NodeID]bool)
	linkSet := make(map[topology.LinkID]bool)
	for pr := range pairs {
		routes, err := global.Routes(pr.a, pr.b)
		if err != nil {
			return nil, err
		}
		nodeSet[pr.a], nodeSet[pr.b] = true, true
		for _, route := range routes {
			for _, lid := range route {
				if linkSet[lid] {
					continue
				}
				linkSet[lid] = true
				l, _ := p.Network.Link(lid)
				nodeSet[l.A], nodeSet[l.B] = true, true
			}
		}
	}

	// Nodes ascending by global ID keeps the local order identical to the
	// global one; links ascending by global link ID keeps route
	// tie-breaking identical.
	gnodes := make([]topology.NodeID, 0, len(nodeSet))
	for id := range nodeSet {
		gnodes = append(gnodes, id)
	}
	sort.Slice(gnodes, func(i, j int) bool { return gnodes[i] < gnodes[j] })
	net := topology.New()
	toLocal := make(map[topology.NodeID]topology.NodeID, len(gnodes))
	toGlobal := make([]topology.NodeID, 0, len(gnodes))
	for _, id := range gnodes {
		n, _ := p.Network.Node(id)
		var lid topology.NodeID
		if n.Kind == topology.Host {
			lid = net.AddHost(n.Name)
		} else {
			lid = net.AddRouter(n.Name)
		}
		toLocal[id] = lid
		toGlobal = append(toGlobal, id)
	}
	glinks := make([]topology.LinkID, 0, len(linkSet))
	for id := range linkSet {
		glinks = append(glinks, id)
	}
	sort.Slice(glinks, func(i, j int) bool { return glinks[i] < glinks[j] })
	for _, id := range glinks {
		l, _ := p.Network.Link(id)
		if _, err := net.Connect(toLocal[l.A], toLocal[l.B]); err != nil {
			return nil, err
		}
	}

	mapFlow := func(f usability.Flow) usability.Flow {
		return usability.Flow{Src: toLocal[f.Src], Dst: toLocal[f.Dst], Svc: f.Svc}
	}
	lflows := make([]usability.Flow, 0, len(flows))
	reqs := usability.NewRequirements()
	ranks := usability.NewRanks()
	for _, f := range flows {
		lf := mapFlow(f)
		lflows = append(lflows, lf)
		if p.Requirements != nil && p.Requirements.Required(f) {
			reqs.Require(lf)
		}
		if p.Ranks != nil {
			if r := p.Ranks.Rank(f); r != 1 {
				ranks.SetFlowRank(lf, r)
			}
		}
	}

	pol := policy.NewSet()
	for _, r := range rules {
		switch rule := r.(type) {
		case policy.PinFlow:
			rule.Flow = mapFlow(rule.Flow)
			pol.Add(rule)
		case policy.Implication:
			rule.If = mapFlow(rule.If)
			rule.Then = mapFlow(rule.Then)
			pol.Add(rule)
		default:
			pol.Add(r)
		}
	}

	sub := &Subproblem{
		RegionA: g.a,
		RegionB: g.b,
		Prob: &core.Problem{
			Network:      net,
			Catalog:      p.Catalog,
			Flows:        lflows,
			Requirements: reqs,
			Ranks:        ranks,
			Policies:     pol,
			Thresholds: core.Thresholds{
				IsolationTenths: p.Thresholds.IsolationTenths,
				UsabilityTenths: p.Thresholds.UsabilityTenths,
				// CostBudget stays zero: regions are cost-minimized, and the
				// budget is checked once on the stitched union. Keeping Th_C
				// out of the subproblem also keeps its fingerprint stable
				// across budget-only problem variants, which is what makes
				// batch sweeps hit the region cache.
			},
			Options: p.Options,
		},
		ToGlobalNode: toGlobal,
	}
	if g.b < 0 {
		sub.Key = interiorKey(g.a)
	} else {
		sub.Key = boundaryKey(g.a, g.b)
		sub.Boundary = true
	}
	return sub, nil
}
