package netsim

import (
	"errors"
	"strings"
	"testing"

	"configsynth/internal/isolation"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// chain builds h1 - r1 - r2 - r3 - r4 - h2 and returns the network, the
// hosts, and the five link IDs in path order.
func chain(t *testing.T) (*topology.Network, topology.NodeID, topology.NodeID, []topology.LinkID) {
	t.Helper()
	net := topology.New()
	h1 := net.AddHost("h1")
	h2 := net.AddHost("h2")
	nodes := []topology.NodeID{h1}
	for i := 0; i < 4; i++ {
		nodes = append(nodes, net.AddRouter(""))
	}
	nodes = append(nodes, h2)
	for i := 1; i < len(nodes); i++ {
		if _, err := net.Connect(nodes[i-1], nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A LinkID is final only once the network is built: read the links
	// in path order now.
	var links []topology.LinkID
	for i := 1; i < len(nodes); i++ {
		id, _ := net.LinkBetween(nodes[i-1], nodes[i])
		links = append(links, id)
	}
	return net, h1, h2, links
}

func sim(t *testing.T, net *topology.Network, placements map[topology.LinkID][]isolation.DeviceID) *Simulator {
	t.Helper()
	s, err := New(Config{Network: net, Placements: placements})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsNilNetwork(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("got %v, want ErrNilNetwork", err)
	}
}

func TestDenyRequiresFirewall(t *testing.T) {
	net, h1, h2, links := chain(t)
	flow := usability.Flow{Src: h1, Dst: h2, Svc: 1}

	// No firewall: deny is violated.
	s := sim(t, net, nil)
	r, err := s.SimulateFlow(flow, isolation.AccessDeny)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() {
		t.Fatal("deny without firewall must be a violation")
	}
	// Firewall anywhere on the single route: satisfied.
	s = sim(t, net, map[topology.LinkID][]isolation.DeviceID{
		links[2]: {isolation.Firewall},
	})
	r, err = s.SimulateFlow(flow, isolation.AccessDeny)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("deny with firewall should pass: %v", r.Violations)
	}
	if !r.Routes[0].Blocked {
		t.Fatal("treatment should record blocking")
	}
}

func TestNoIsolationHasNoObligations(t *testing.T) {
	net, h1, h2, links := chain(t)
	s := sim(t, net, map[topology.LinkID][]isolation.DeviceID{
		links[0]: {isolation.Firewall, isolation.IDS},
	})
	r, err := s.SimulateFlow(usability.Flow{Src: h1, Dst: h2, Svc: 1}, isolation.PatternNone)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("no-isolation flow must never be violated: %v", r.Violations)
	}
}

func TestInspectionAndProxy(t *testing.T) {
	net, h1, h2, links := chain(t)
	flow := usability.Flow{Src: h1, Dst: h2, Svc: 1}
	s := sim(t, net, map[topology.LinkID][]isolation.DeviceID{
		links[1]: {isolation.IDS},
		links[3]: {isolation.Proxy},
	})
	r, err := s.SimulateFlow(flow, isolation.PayloadInspection)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("inspection should pass: %v", r.Violations)
	}
	r, err = s.SimulateFlow(flow, isolation.ProxyForwarding)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("proxy should pass: %v", r.Violations)
	}
	// Missing device type.
	s2 := sim(t, net, map[topology.LinkID][]isolation.DeviceID{
		links[1]: {isolation.IDS},
	})
	r, err = s2.SimulateFlow(flow, isolation.ProxyForwarding)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() {
		t.Fatal("proxy pattern without a proxy must be a violation")
	}
}

func TestTunnelWindows(t *testing.T) {
	net, h1, h2, links := chain(t) // 5 links, T=2: entry in {0,1}, exit in {3,4}
	flow := usability.Flow{Src: h1, Dst: h2, Svc: 1}

	cases := []struct {
		name  string
		place []int
		ok    bool
	}{
		{"entry+exit in windows", []int{1, 4}, true},
		{"entry at first link", []int{0, 3}, true},
		{"entry too deep", []int{2, 4}, false},
		{"exit too shallow", []int{1, 2}, false},
		{"single gateway", []int{1}, false},
		{"none", nil, false},
		{"three gateways", []int{0, 2, 4}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			placements := map[topology.LinkID][]isolation.DeviceID{}
			for _, pos := range tc.place {
				placements[links[pos]] = []isolation.DeviceID{isolation.IPSec}
			}
			s := sim(t, net, placements)
			r, err := s.SimulateFlow(flow, isolation.TrustedComm)
			if err != nil {
				t.Fatal(err)
			}
			if r.OK() != tc.ok {
				t.Fatalf("ok = %v, want %v (violations: %v)", r.OK(), tc.ok, r.Violations)
			}
		})
	}
}

func TestTunnelShortRouteOverlappingWindows(t *testing.T) {
	// h1 - r - h2: 2 links < 2T = 4, so the source and destination
	// windows overlap and cover the whole route. A single gateway
	// anywhere on it terminates the tunnel at both ends; no gateway at
	// all is still a violation on both windows.
	net := topology.New()
	h1 := net.AddHost("h1")
	h2 := net.AddHost("h2")
	r := net.AddRouter("r")
	l1, _ := net.Connect(h1, r)
	if _, err := net.Connect(r, h2); err != nil {
		t.Fatal(err)
	}
	flow := usability.Flow{Src: h1, Dst: h2, Svc: 1}

	s := sim(t, net, map[topology.LinkID][]isolation.DeviceID{
		l1: {isolation.IPSec},
	})
	rep, err := s.SimulateFlow(flow, isolation.TrustedComm)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("single gateway in the overlapping windows must satisfy the tunnel, got %v", rep.Violations)
	}

	bare := sim(t, net, nil)
	rep, err = bare.SimulateFlow(flow, isolation.TrustedComm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("tunnel with no gateways must be rejected")
	}
	joined := strings.Join(rep.Violations, " ")
	if !strings.Contains(joined, "source") || !strings.Contains(joined, "destination") {
		t.Fatalf("expected source and destination window violations, got %v", rep.Violations)
	}
}

func TestProxyTrustedCombines(t *testing.T) {
	net, h1, h2, links := chain(t)
	flow := usability.Flow{Src: h1, Dst: h2, Svc: 1}
	s := sim(t, net, map[topology.LinkID][]isolation.DeviceID{
		links[0]: {isolation.IPSec},
		links[2]: {isolation.Proxy},
		links[4]: {isolation.IPSec},
	})
	r, err := s.SimulateFlow(flow, isolation.ProxyTrustedComm)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("proxy+tunnel should pass: %v", r.Violations)
	}
	// Remove the proxy: violated.
	s = sim(t, net, map[topology.LinkID][]isolation.DeviceID{
		links[0]: {isolation.IPSec},
		links[4]: {isolation.IPSec},
	})
	r, _ = s.SimulateFlow(flow, isolation.ProxyTrustedComm)
	if r.OK() {
		t.Fatal("missing proxy must be a violation")
	}
}

func TestMultiRouteCoverage(t *testing.T) {
	// Diamond: two routes; a firewall on only one route leaves deny
	// violated.
	net := topology.New()
	h1 := net.AddHost("h1")
	h2 := net.AddHost("h2")
	r1, r2, r3, r4 := net.AddRouter(""), net.AddRouter(""), net.AddRouter(""), net.AddRouter("")
	for _, l := range [][2]topology.NodeID{{h1, r1}, {r1, r2}, {r1, r3}, {r2, r4}, {r3, r4}, {r4, h2}} {
		if _, err := net.Connect(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	lh1, _ := net.LinkBetween(h1, r1)
	top, _ := net.LinkBetween(r1, r2)
	bottom, _ := net.LinkBetween(r1, r3)
	lh2, _ := net.LinkBetween(r4, h2)
	flow := usability.Flow{Src: h1, Dst: h2, Svc: 1}

	s := sim(t, net, map[topology.LinkID][]isolation.DeviceID{
		top: {isolation.Firewall},
	})
	r, err := s.SimulateFlow(flow, isolation.AccessDeny)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() {
		t.Fatal("firewall on one of two routes must leave deny violated")
	}
	// Covering both routes (or the shared access link) passes.
	for _, placements := range []map[topology.LinkID][]isolation.DeviceID{
		{top: {isolation.Firewall}, bottom: {isolation.Firewall}},
		{lh1: {isolation.Firewall}},
		{lh2: {isolation.Firewall}},
	} {
		s := sim(t, net, placements)
		r, err := s.SimulateFlow(flow, isolation.AccessDeny)
		if err != nil {
			t.Fatal(err)
		}
		if !r.OK() {
			t.Fatalf("placements %v should cover both routes: %v", placements, r.Violations)
		}
	}
}

func TestSimulateAllAndReport(t *testing.T) {
	net, h1, h2, links := chain(t)
	s := sim(t, net, map[topology.LinkID][]isolation.DeviceID{
		links[0]: {isolation.Firewall},
	})
	report, err := s.SimulateAll(map[usability.Flow]isolation.PatternID{
		{Src: h1, Dst: h2, Svc: 1}: isolation.AccessDeny,
		{Src: h2, Dst: h1, Svc: 1}: isolation.PayloadInspection, // violated
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() {
		t.Fatal("expected a violation")
	}
	if len(report.Violations()) != 1 {
		t.Fatalf("violations = %d, want 1", len(report.Violations()))
	}
	if !strings.Contains(report.String(), "1 violations") {
		t.Fatalf("String() = %q", report.String())
	}
	ok, err := s.SimulateAll(map[usability.Flow]isolation.PatternID{
		{Src: h1, Dst: h2, Svc: 1}: isolation.AccessDeny,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok.OK() || !strings.Contains(ok.String(), "all treatments match") {
		t.Fatalf("clean report wrong: %v", ok.String())
	}
}
