// Package netsim provides an executable semantics for synthesized
// security designs: it simulates the traversal of each service flow
// through the topology, applying the security devices placed on links
// (firewall filtering, IPSec tunnel endpoints, IDS inspection, proxy
// forwarding), and reports the effective treatment every flow receives.
//
// The simulator is the end-to-end check that a Design means what it
// says: a flow assigned "access deny" is actually blocked on every
// route, a "trusted communication" flow passes through an entry gateway
// within T links of the source and an exit gateway within T links of the
// destination, and so on. The verification layer (internal/core.Verify
// and the property tests) is built on it.
package netsim

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"configsynth/internal/isolation"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// Treatment describes what happens to traffic on one route.
type Treatment struct {
	// Blocked is true when a firewall on the route filters the flow
	// (only meaningful when the flow's pattern is access deny — a
	// firewall present on a route does not by itself block flows that
	// were not assigned the deny pattern; paper §III-C).
	Blocked bool
	// TunnelEntry/TunnelExit are the link positions (0-based index into
	// the route) of the first and second IPSec gateways, or -1.
	TunnelEntry, TunnelExit int
	// Gateways lists every IPSec gateway position on the route in order.
	// On short routes (fewer than 2T links) the source and destination
	// windows overlap, and a single gateway may appear in both.
	Gateways []int
	// Inspected is true when an IDS sits on the route.
	Inspected bool
	// Proxied is true when a proxy sits on the route.
	Proxied bool
	// Natted is true when a NAT device sits on the route (source
	// identity hiding, extended catalog).
	Natted bool
}

// FlowReport aggregates the simulation of one flow over all its routes.
type FlowReport struct {
	Flow usability.Flow
	// Pattern is the isolation pattern the design assigned.
	Pattern isolation.PatternID
	// Routes holds one treatment per enumerated route.
	Routes []Treatment
	// Violations lists semantic mismatches between the assigned pattern
	// and what the placed devices actually achieve.
	Violations []string
}

// OK reports whether the flow's treatment matches its pattern.
func (r FlowReport) OK() bool { return len(r.Violations) == 0 }

// Simulator walks flows through a topology with device placements. Its
// route table lives as long as it does, so the services of a host pair
// share one enumeration.
type Simulator struct {
	placements map[topology.LinkID][]isolation.DeviceID
	routes     *topology.RouteTable
	tunnelT    int
}

// Config parameterizes a simulator.
type Config struct {
	// Network is the topology to walk.
	Network *topology.Network
	// Placements maps links to deployed devices.
	Placements map[topology.LinkID][]isolation.DeviceID
	// Routes bounds route enumeration; must match the synthesis options
	// for verification to be meaningful.
	Routes topology.RouteOptions
	// TunnelSlackHops is the paper's T for IPSec gateway windows
	// (default 2).
	TunnelSlackHops int
}

// ErrNilNetwork reports a missing topology.
var ErrNilNetwork = errors.New("netsim: nil network")

// New builds a simulator.
func New(cfg Config) (*Simulator, error) {
	if cfg.Network == nil {
		return nil, ErrNilNetwork
	}
	if cfg.TunnelSlackHops <= 0 {
		cfg.TunnelSlackHops = 2
	}
	placements := make(map[topology.LinkID][]isolation.DeviceID, len(cfg.Placements))
	for link, devs := range cfg.Placements {
		placements[link] = append([]isolation.DeviceID(nil), devs...)
	}
	return &Simulator{
		placements: placements,
		routes:     topology.NewRouteTable(cfg.Network, cfg.Routes),
		tunnelT:    cfg.TunnelSlackHops,
	}, nil
}

func (s *Simulator) hasDevice(link topology.LinkID, dev isolation.DeviceID) bool {
	for _, d := range s.placements[link] {
		if d == dev {
			return true
		}
	}
	return false
}

// walk computes the treatment of one route.
func (s *Simulator) walk(route topology.Route) Treatment {
	t := Treatment{TunnelEntry: -1, TunnelExit: -1}
	for pos, link := range route {
		if s.hasDevice(link, isolation.Firewall) {
			t.Blocked = true
		}
		if s.hasDevice(link, isolation.IDS) {
			t.Inspected = true
		}
		if s.hasDevice(link, isolation.Proxy) {
			t.Proxied = true
		}
		if s.hasDevice(link, isolation.NAT) {
			t.Natted = true
		}
		if s.hasDevice(link, isolation.IPSec) {
			t.Gateways = append(t.Gateways, pos)
			if t.TunnelEntry < 0 {
				t.TunnelEntry = pos
			} else {
				t.TunnelExit = pos
			}
		}
	}
	return t
}

// SimulateFlow walks every route of a flow and checks the assigned
// pattern against the achieved treatment.
func (s *Simulator) SimulateFlow(f usability.Flow, pattern isolation.PatternID) (FlowReport, error) {
	routes, err := s.routes.Routes(f.Src, f.Dst)
	if err != nil {
		return FlowReport{}, fmt.Errorf("netsim: routes for %v: %w", f, err)
	}
	report := FlowReport{Flow: f, Pattern: pattern}
	for _, route := range routes {
		report.Routes = append(report.Routes, s.walk(route))
	}
	report.Violations = s.check(pattern, routes, report.Routes)
	return report, nil
}

// check validates the per-route treatments against the pattern's
// semantics.
func (s *Simulator) check(pattern isolation.PatternID, routes []topology.Route, treatments []Treatment) []string {
	var violations []string
	add := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	needAll := func(name string, ok func(i int) bool) {
		for i := range treatments {
			if !ok(i) {
				add("route %d (%d links): %s missing", i, len(routes[i]), name)
			}
		}
	}
	switch pattern {
	case isolation.PatternNone:
		// No obligations: traffic may pass through devices placed for
		// other flows, which affects nothing for this flow.
	case isolation.AccessDeny:
		needAll("firewall", func(i int) bool { return treatments[i].Blocked })
	case isolation.PayloadInspection:
		needAll("IDS", func(i int) bool { return treatments[i].Inspected })
	case isolation.ProxyForwarding:
		needAll("proxy", func(i int) bool { return treatments[i].Proxied })
	case isolation.SourceHiding:
		needAll("NAT", func(i int) bool { return treatments[i].Natted })
	case isolation.TrustedComm:
		s.checkTunnel(routes, treatments, &violations)
	case isolation.ProxyTrustedComm:
		needAll("proxy", func(i int) bool { return treatments[i].Proxied })
		s.checkTunnel(routes, treatments, &violations)
	default:
		add("unknown pattern %d", pattern)
	}
	return violations
}

// checkTunnel validates the IPSec rule on every route: a gateway within
// T links of the source and a gateway within T links of the destination.
// On routes of at least 2T links the windows are disjoint, giving the
// paper's two-gateway rule; on shorter routes they overlap and a single
// gateway in the overlap may terminate the tunnel at both ends — the
// same window semantics as the synthesis encoding.
func (s *Simulator) checkTunnel(routes []topology.Route, treatments []Treatment, violations *[]string) {
	T := s.tunnelT
	for i, route := range routes {
		tr := treatments[i]
		headOK, tailOK := false, false
		for _, pos := range tr.Gateways {
			if pos < T {
				headOK = true
			}
			if pos >= len(route)-T {
				tailOK = true
			}
		}
		if !headOK {
			*violations = append(*violations,
				fmt.Sprintf("route %d: no IPSec gateway within %d links of the source", i, T))
		}
		if !tailOK {
			*violations = append(*violations,
				fmt.Sprintf("route %d: no IPSec gateway within %d links of the destination", i, T))
		}
	}
}

// Report is a whole-design simulation result.
type Report struct {
	Flows []FlowReport
}

// OK reports whether every flow's treatment matches its pattern.
func (r Report) OK() bool {
	for _, f := range r.Flows {
		if !f.OK() {
			return false
		}
	}
	return true
}

// Violations flattens all violations with their flows.
func (r Report) Violations() []string {
	var out []string
	for _, f := range r.Flows {
		for _, v := range f.Violations {
			out = append(out, fmt.Sprintf("%v [%d]: %s", f.Flow, f.Pattern, v))
		}
	}
	return out
}

// String summarizes the report.
func (r Report) String() string {
	bad := r.Violations()
	if len(bad) == 0 {
		return fmt.Sprintf("netsim: %d flows simulated, all treatments match", len(r.Flows))
	}
	return fmt.Sprintf("netsim: %d flows simulated, %d violations:\n  %s",
		len(r.Flows), len(bad), strings.Join(bad, "\n  "))
}

// SimulateAll simulates every flow-to-pattern assignment.
func (s *Simulator) SimulateAll(assignment map[usability.Flow]isolation.PatternID) (Report, error) {
	flows := make([]usability.Flow, 0, len(assignment))
	for f := range assignment {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool {
		a, b := flows[i], flows[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Svc < b.Svc
	})
	var report Report
	for _, f := range flows {
		fr, err := s.SimulateFlow(f, assignment[f])
		if err != nil {
			return Report{}, err
		}
		report.Flows = append(report.Flows, fr)
	}
	return report, nil
}
