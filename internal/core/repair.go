package core

import (
	"errors"
	"sort"

	"configsynth/internal/isolation"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// linkDev is one placement: a device on a link.
type linkDev struct {
	link topology.LinkID
	dev  isolation.DeviceID
}

// CompletePlacements tops up a design's placements until every (pair,
// device) requirement implied by its flow patterns is covered on every
// route, under the same semantics the encoding asserts (every route
// carries the device; for IPSec, both the head and tail tunnel windows
// do). It returns the number of devices added; d.Placements and d.Cost
// are updated in place (devices listed in p.Preplaced are free).
//
// A design produced by Solve on p needs no completion. The function
// exists for designs assembled from partial solves — internal/decomp
// stitches per-region designs whose subnetworks can rank routes
// differently from the global graph once enumeration hits its search
// cap, leaving a stitched design short of coverage on some globally
// enumerated route. Completion restores the invariant checked by
// Verify at the price of a few extra (deterministically chosen)
// devices.
//
// routes is the caller's table of p's routes (the decomposing solver has
// enumerated most of them already while splitting); a table of another
// network or other route options is refused.
func CompletePlacements(p *Problem, d *Design, routes *topology.RouteTable) (int, error) {
	p = p.normalized()
	opts := p.Options.Normalized()
	if !routes.Covers(p.Network, opts.Routes) {
		return 0, errors.New("core: CompletePlacements: route table is not of the problem's network and route options")
	}

	placed := make(map[linkDev]bool)
	for link, devs := range d.Placements {
		for _, dev := range devs {
			placed[linkDev{link: link, dev: dev}] = true
		}
	}
	preset := make(map[linkDev]bool, len(p.Preplaced))
	for _, pp := range p.Preplaced {
		if link, ok := p.Network.LinkBetween(pp.A, pp.B); ok {
			preset[linkDev{link: link, dev: pp.Dev}] = true
		}
	}

	// Needed (pair, device) requirements, deterministically ordered. A
	// pair is keyed low host first: the routes of (b, a) are those of
	// (a, b) reversed, over the same links with the same IPSec windows,
	// so one walk covers both directions.
	type need struct {
		a, b topology.NodeID
		dev  isolation.DeviceID
	}
	seen := make(map[need]bool)
	var needs []need
	// A design covers its problem's flows, so they are walked in order
	// from the problem and looked up in the design. Only a design with
	// flows the problem lacks is walked out of its map.
	collect := func(flows []usability.Flow) int {
		clear(seen)
		needs = needs[:0]
		found := 0
		for _, f := range flows {
			pid, ok := d.FlowPatterns[f]
			if !ok {
				continue
			}
			found++
			if pid == isolation.PatternNone {
				continue
			}
			for _, dev := range p.Catalog.DevicesFor(pid) {
				n := need{a: min(f.Src, f.Dst), b: max(f.Src, f.Dst), dev: dev}
				if !seen[n] {
					seen[n] = true
					needs = append(needs, n)
				}
			}
		}
		return found
	}
	if collect(usability.SortedFlows(p.Flows)) != len(d.FlowPatterns) {
		flows := make([]usability.Flow, 0, len(d.FlowPatterns))
		for f := range d.FlowPatterns {
			flows = append(flows, f)
		}
		collect(usability.SortedFlows(flows))
	}

	place := func(window []topology.LinkID, dev isolation.DeviceID) bool {
		for _, link := range window {
			if placed[linkDev{link: link, dev: dev}] {
				return false
			}
		}
		// Deterministic choice: the lowest link ID in the window.
		best := window[0]
		for _, link := range window[1:] {
			if link < best {
				best = link
			}
		}
		key := linkDev{link: best, dev: dev}
		placed[key] = true
		d.Placements[best] = append(d.Placements[best], dev)
		if !preset[key] {
			dd, _ := p.Catalog.Device(dev)
			d.Cost += dd.Cost
		}
		return true
	}

	added := 0
	for _, n := range needs {
		pairRoutes, err := routes.Routes(n.a, n.b)
		if err != nil {
			return added, err
		}
		for _, route := range pairRoutes {
			if n.dev == isolation.IPSec {
				head, tail := tunnelWindows(route, opts.TunnelSlackHops)
				if place(head, n.dev) {
					added++
				}
				if place(tail, n.dev) {
					added++
				}
				continue
			}
			if place(route, n.dev) {
				added++
			}
		}
	}
	if added > 0 {
		for _, devs := range d.Placements {
			sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
		}
	}
	return added, nil
}
