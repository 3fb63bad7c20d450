package topology_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/netgen"
	"configsynth/internal/topology"
)

// optionSets are the caps every differential comparison runs under: the
// defaults, the generators' 4/12, and two sets tight enough that both
// caps bind on every multi-hop pair.
var optionSets = []topology.RouteOptions{
	{},
	{MaxRoutes: 4, MaxHops: 12},
	{MaxRoutes: 1, MaxHops: 1},
	{MaxRoutes: 2, MaxHops: 3},
}

type diffCase struct {
	name  string
	net   *topology.Network
	pairs [][2]topology.NodeID // each compared in both directions
}

func flowPairs(p *core.Problem) [][2]topology.NodeID {
	seen := make(map[[2]topology.NodeID]bool)
	var pairs [][2]topology.NodeID
	for _, f := range p.Flows {
		a, b := f.Src, f.Dst
		if a > b {
			a, b = b, a
		}
		if k := [2]topology.NodeID{a, b}; !seen[k] {
			seen[k] = true
			pairs = append(pairs, k)
		}
	}
	return pairs
}

// fullMesh is a complete graph over the given number of routers with two
// hosts on each of two opposite corners; at 8 routers a pair has 1957
// simple paths, far past the 32-candidate search cap. One host of each
// corner is linked before the mesh and one after it, so their links sit
// at both ends of the corner routers' adjacency lists: pairs that share
// a search in a RouteTable meet the destination at different points of
// the scan.
func fullMesh(t testing.TB, routers int) diffCase {
	t.Helper()
	n := topology.New()
	h1, h2 := n.AddHost("h1"), n.AddHost("h2")
	rs := make([]topology.NodeID, routers)
	for i := range rs {
		rs[i] = n.AddRouter("")
	}
	h3, h4 := n.AddHost("h3"), n.AddHost("h4")
	connect := func(a, b topology.NodeID) {
		if _, err := n.Connect(a, b); err != nil {
			t.Fatal(err)
		}
	}
	connect(h3, rs[0])
	connect(rs[len(rs)-1], h4)
	for i := range rs {
		for j := i + 1; j < len(rs); j++ {
			connect(rs[i], rs[j])
		}
	}
	connect(h1, rs[0])
	connect(h2, rs[len(rs)-1])
	return diffCase{
		name: fmt.Sprintf("mesh%d", routers),
		net:  n,
		pairs: [][2]topology.NodeID{
			{h1, h2}, {h3, h4}, {h1, h4}, {h3, h2}, {h1, h3},
			{h1, rs[routers/2]}, {rs[1], rs[routers-2]},
		},
	}
}

// mixedHoming is a ring of five routers with a chord where hosts attach
// in every way the table's sharing must tell apart: two single-link
// hosts on one router, one on another, a host with two uplinks, and two
// hosts joined by a direct link, one of which has no other.
func mixedHoming(t testing.TB) diffCase {
	t.Helper()
	n := topology.New()
	var rs []topology.NodeID
	for i := 0; i < 5; i++ {
		rs = append(rs, n.AddRouter(""))
	}
	a1, a2, b := n.AddHost("a1"), n.AddHost("a2"), n.AddHost("b")
	dual, leaf, hub := n.AddHost("dual"), n.AddHost("leaf"), n.AddHost("hub")
	for _, l := range [][2]topology.NodeID{
		{rs[0], rs[1]}, {rs[1], rs[2]}, {rs[2], rs[3]}, {rs[3], rs[4]}, {rs[4], rs[0]}, {rs[1], rs[3]},
		{a1, rs[0]}, {b, rs[2]}, {dual, rs[1]}, {a2, rs[0]}, {dual, rs[4]}, {hub, rs[3]}, {leaf, hub},
	} {
		if _, err := n.Connect(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	hosts := []topology.NodeID{a1, a2, b, dual, leaf, hub}
	tc := diffCase{name: "mixed-homing", net: n}
	for i, x := range hosts {
		for _, y := range hosts[i+1:] {
			tc.pairs = append(tc.pairs, [2]topology.NodeID{x, y})
		}
	}
	return tc
}

func campus100(t testing.TB) *core.Problem {
	t.Helper()
	p, err := netgen.Campus(netgen.CampusConfig{Hosts: 100, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// diffCases are the topologies the issue lists: the paper example,
// generated networks at the sizes of the benchmark's cold_solve specs
// (24-60 hosts on a random tree of 6-10 routers with chords), the
// benchmark's campus, a mesh where the search cap truncates, and a small
// network mixing single-link, dual-homed and host-linked hosts.
func diffCases(t testing.TB) []diffCase {
	t.Helper()
	paper := netgen.PaperExample()
	cases := []diffCase{{name: "paper", net: paper.Network, pairs: flowPairs(paper)}}
	for i, size := range [][2]int{{24, 6}, {29, 7}, {46, 10}, {60, 10}} {
		p, err := netgen.Generate(netgen.Config{Hosts: size[0], Routers: size[1], Seed: int64(1001 + i)})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, diffCase{
			name: fmt.Sprintf("grammar%dx%d", size[0], size[1]), net: p.Network, pairs: flowPairs(p),
		})
	}
	campus := campus100(t)
	cases = append(cases, diffCase{name: "campus100", net: campus.Network, pairs: flowPairs(campus)})
	return append(cases, fullMesh(t, 8), mixedHoming(t))
}

func sameRoutes(a, b []topology.Route) bool {
	return slices.EqualFunc(a, b, func(x, y topology.Route) bool { return slices.Equal(x, y) })
}

// TestRoutesMatchReference is the exactness check of the rebuilt
// enumerator: the same routes in the same order as the old one, from
// Network.Routes and from a RouteTable, asked twice.
func TestRoutesMatchReference(t *testing.T) {
	truncated := false
	for _, tc := range diffCases(t) {
		for _, opts := range optionSets {
			table := topology.NewRouteTable(tc.net, opts)
			for _, pr := range tc.pairs {
				for _, dir := range [][2]topology.NodeID{{pr[0], pr[1]}, {pr[1], pr[0]}} {
					want, err := tc.net.ReferenceRoutes(dir[0], dir[1], opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := tc.net.Routes(dir[0], dir[1], opts)
					if err != nil {
						t.Fatal(err)
					}
					if !sameRoutes(got, want) || (got == nil) != (want == nil) {
						t.Fatalf("%s %+v %v: Routes = %v, reference %v", tc.name, opts, dir, got, want)
					}
					for range 2 {
						got, err = table.Routes(dir[0], dir[1])
						if err != nil {
							t.Fatal(err)
						}
						if !sameRoutes(got, want) || (got == nil) != (want == nil) {
							t.Fatalf("%s %+v %v: table = %v, reference %v", tc.name, opts, dir, got, want)
						}
					}
					if strings.HasPrefix(tc.name, "mesh") && len(want) == opts.Normalized().MaxRoutes {
						truncated = true
					}
				}
			}
			if got, _ := table.Size(); got != 2*len(tc.pairs) {
				t.Errorf("%s %+v: table holds %d pairs, want %d", tc.name, opts, got, 2*len(tc.pairs))
			}
		}
	}
	if !truncated {
		t.Error("no mesh pair filled MaxRoutes: the truncating case is not exercised")
	}
}

// TestMeshDirectionsDiffer pins why the table's key is directional: once
// the search cap cuts the enumeration short, the routes of (a, b) are
// not the routes of (b, a) reversed.
func TestMeshDirectionsDiffer(t *testing.T) {
	tc := fullMesh(t, 8)
	h1, h2 := tc.pairs[0][0], tc.pairs[0][1]
	fwd, _ := tc.net.Routes(h1, h2, topology.RouteOptions{})
	rev, _ := tc.net.Routes(h2, h1, topology.RouteOptions{})
	for _, r := range rev {
		slices.Reverse(r)
	}
	if sameRoutes(fwd, rev) {
		t.Fatal("reversed routes of (h2, h1) equal those of (h1, h2); the mesh no longer truncates")
	}
}

// TestRouteTableErrorsAndCovers checks the table's edges: unknown nodes
// are an error and leave no entry, a pair with itself has no routes, and
// Covers compares the network and the effective options.
func TestRouteTableErrorsAndCovers(t *testing.T) {
	p := netgen.PaperExample()
	table := topology.NewRouteTable(p.Network, topology.RouteOptions{})
	if _, err := table.Routes(0, 9999); err == nil {
		t.Error("unknown node: no error")
	}
	if routes, err := table.Routes(3, 3); err != nil || routes != nil {
		t.Errorf("self pair: %v, %v", routes, err)
	}
	if pairs, routes := table.Size(); pairs != 1 || routes != 0 {
		t.Errorf("table holds %d pairs and %d routes, want the self pair only", pairs, routes)
	}
	if !table.Covers(p.Network, topology.RouteOptions{MaxRoutes: 8, MaxHops: 16}) {
		t.Error("Covers: defaults spelled out must match the zero options")
	}
	if table.Covers(p.Network, topology.RouteOptions{MaxRoutes: 4}) || table.Covers(netgen.PaperExample().Network, topology.RouteOptions{}) {
		t.Error("Covers: other options or another network must not match")
	}
}

// TestRouteTableConcurrentReaders has four goroutines ask one table for
// the same pairs in different orders: every answer must be the
// reference's, and the race detector must stay quiet.
func TestRouteTableConcurrentReaders(t *testing.T) {
	p := campus100(t)
	opts := p.Options.Routes
	pairs := flowPairs(p)[:400]
	want := make([][]topology.Route, len(pairs))
	for i, pr := range pairs {
		want[i], _ = p.Network.ReferenceRoutes(pr[0], pr[1], opts)
	}
	table := topology.NewRouteTable(p.Network, opts)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(seed)).Perm(len(pairs)) {
				got, err := table.Routes(pairs[i][0], pairs[i][1])
				if err != nil || !sameRoutes(got, want[i]) {
					t.Errorf("pair %v: %v, %v; want %v", pairs[i], got, err, want[i])
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	total := 0
	for _, routes := range want {
		total += len(routes)
	}
	if gotPairs, gotRoutes := table.Size(); gotPairs != len(pairs) || gotRoutes != total {
		t.Errorf("table holds %d pairs and %d routes, want %d and %d", gotPairs, gotRoutes, len(pairs), total)
	}
}

// scrambled rebuilds a network with its links connected in a shuffled
// order, the way a permuted spec declares them.
func scrambled(t testing.TB, n *topology.Network, seed int64) *topology.Network {
	t.Helper()
	out := topology.New()
	for id := 0; id < n.NumNodes(); id++ {
		nd, _ := n.Node(topology.NodeID(id))
		if nd.Kind == topology.Host {
			out.AddHost(nd.Name)
		} else {
			out.AddRouter(nd.Name)
		}
	}
	links := n.Links()
	rand.New(rand.NewSource(seed)).Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	for i, l := range links {
		if i%2 == 1 {
			l.A, l.B = l.B, l.A
		}
		if _, err := out.Connect(l.A, l.B); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestAdjacencyStaysInLinkOrder checks the invariant the search relies
// on in place of its old per-step sort: whatever order links are
// connected in, every adjacency list is in increasing LinkID, Validate
// accepts it, and Validate rejects a list that is not.
func TestAdjacencyStaysInLinkOrder(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		n := scrambled(t, campus100(t).Network, seed)
		for id := 0; id < n.NumNodes(); id++ {
			if links := n.AdjacentLinks(topology.NodeID(id)); !slices.IsSorted(links) {
				t.Fatalf("seed %d node %d: adjacency %v not in link order", seed, id, links)
			}
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	tc := fullMesh(t, 4)
	tc.net.SwapAdjacency(tc.pairs[6][0], 0, 2)
	if err := tc.net.Validate(); err == nil || !strings.Contains(err.Error(), "link order") {
		t.Fatalf("Validate accepted a scrambled adjacency list: %v", err)
	}
}

// chain builds h1 - r1 - ... - rN - h2 plus an isolated pair h3 - rX.
func chain(t testing.TB, routers int) (*topology.Network, topology.NodeID, topology.NodeID) {
	t.Helper()
	n := topology.New()
	h1, h2 := n.AddHost("h1"), n.AddHost("h2")
	prev := h1
	for i := 0; i < routers; i++ {
		r := n.AddRouter("")
		if _, err := n.Connect(prev, r); err != nil {
			t.Fatal(err)
		}
		prev = r
	}
	if _, err := n.Connect(prev, h2); err != nil {
		t.Fatal(err)
	}
	return n, h1, h2
}

// TestValidateMatchesRouteReachability holds the breadth-first Validate
// to the answers of the one that enumerated routes per pair: on the
// generator profiles, on a pair cut off from the rest, and around the
// default 16-hop cap.
func TestValidateMatchesRouteReachability(t *testing.T) {
	for _, tc := range diffCases(t) {
		hosts := tc.net.Hosts()
		all := true
		for i, a := range hosts {
			for _, b := range hosts[i+1:] {
				want := tc.net.ReferenceConnected(a, b)
				if got := tc.net.Connected(a, b); got != want {
					t.Fatalf("%s: Connected(%d, %d) = %v, reference %v", tc.name, a, b, got, want)
				}
				all = all && want
			}
		}
		if err := tc.net.Validate(); (err == nil) != all {
			t.Errorf("%s: Validate = %v, every pair connected = %v", tc.name, err, all)
		}
	}

	for routers, want := range map[int]bool{14: true, 15: true, 16: false, 20: false} {
		n, h1, h2 := chain(t, routers) // routers+1 links end to end
		for _, dir := range [][2]topology.NodeID{{h1, h2}, {h2, h1}} {
			if got := n.Connected(dir[0], dir[1]); got != want || got != n.ReferenceConnected(dir[0], dir[1]) {
				t.Errorf("chain of %d links: Connected%v = %v, want %v", routers+1, dir, got, want)
			}
		}
		if err := n.Validate(); (err == nil) != want {
			t.Errorf("chain of %d links: Validate = %v", routers+1, err)
		}
	}

	// h3 hangs off a router with no link to the rest: the first failing
	// pair in host order is reported, as before.
	n, h1, _ := chain(t, 2)
	h3, island := n.AddHost("h3"), n.AddRouter("island")
	if _, err := n.Connect(h3, island); err != nil {
		t.Fatal(err)
	}
	if n.Connected(h1, h3) || n.Connected(h3, h1) || n.Connected(h1, h1) || n.Connected(h1, 99) {
		t.Error("Connected: cut-off, self and unknown pairs must all be false")
	}
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "hosts h1 and h3 are not connected") {
		t.Errorf("Validate on a cut-off host: %v", err)
	}
	// A host between two routers forwards nothing.
	m := topology.New()
	a, mid, b := m.AddHost("a"), m.AddHost("mid"), m.AddHost("b")
	r1, r2 := m.AddRouter("r1"), m.AddRouter("r2")
	for _, l := range [][2]topology.NodeID{{a, r1}, {r1, mid}, {mid, r2}, {r2, b}} {
		if _, err := m.Connect(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	if m.Connected(a, b) || !m.Connected(a, mid) || !m.Connected(mid, b) {
		t.Error("Connected must not route through a host")
	}
}
