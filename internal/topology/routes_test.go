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

// TestMeshRoutesReverse: a host pair has one route set. On the mesh
// where the search cap truncates, a search from h2 would keep other
// routes than one from h1; the routes of (h2, h1) are those of (h1, h2)
// reversed, from Network.Routes and from a table asked in either order.
func TestMeshRoutesReverse(t *testing.T) {
	tc := fullMesh(t, 8)
	h1, h2 := tc.pairs[0][0], tc.pairs[0][1]
	fwd, _ := tc.net.Routes(h1, h2, topology.RouteOptions{})
	if len(fwd) != (topology.RouteOptions{}).Normalized().MaxRoutes {
		t.Fatalf("%d routes: the mesh no longer truncates", len(fwd))
	}
	want := make([]topology.Route, len(fwd))
	for i, r := range fwd {
		want[i] = slices.Clone(r)
		slices.Reverse(want[i])
	}
	rev, _ := tc.net.Routes(h2, h1, topology.RouteOptions{})
	if !sameRoutes(rev, want) {
		t.Fatalf("Routes(h2, h1) = %v, want the reversal %v", rev, want)
	}
	for _, first := range [][2]topology.NodeID{{h1, h2}, {h2, h1}} {
		table := topology.NewRouteTable(tc.net, topology.RouteOptions{})
		table.Routes(first[0], first[1])
		if got, _ := table.Routes(h2, h1); !sameRoutes(got, want) {
			t.Fatalf("table asked %v first: Routes(h2, h1) = %v, want %v", first, got, want)
		}
		if got, _ := table.Routes(h1, h2); !sameRoutes(got, fwd) {
			t.Fatalf("table asked %v first: Routes(h1, h2) = %v, want %v", first, got, fwd)
		}
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
// order, every other one in the other orientation, the way a permuted
// spec declares them. Each ID Connect returns must name the link just
// added.
func scrambled(t testing.TB, n *topology.Network, seed int64) *topology.Network {
	t.Helper()
	links := n.Links()
	rand.New(rand.NewSource(seed)).Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	for i := range links {
		if i%2 == 1 {
			links[i].A, links[i].B = links[i].B, links[i].A
		}
	}
	return connected(t, n, links)
}

// connected is a network with n's nodes and the given links, connected
// in the order given.
func connected(t testing.TB, n *topology.Network, links []topology.Link) *topology.Network {
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
	for _, l := range links {
		id, err := out.Connect(l.A, l.B)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := out.Link(id); !ok || got.A != l.A || got.B != l.B {
			t.Fatalf("Connect(%d, %d) returned %d, which names %+v", l.A, l.B, id, got)
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

// TestLinkIDsAreAFunctionOfTheLinkSet: whatever order a network's links
// are connected in, and in either orientation, it has one numbering —
// the links in sorted endpoint order, ID = index — and so one adjacency
// and one route set per host pair, and it passes Validate.
func TestLinkIDsAreAFunctionOfTheLinkSet(t *testing.T) {
	ends := func(l topology.Link) [2]topology.NodeID { return [2]topology.NodeID{min(l.A, l.B), max(l.A, l.B)} }
	mesh, err := netgen.Generate(netgen.Config{Hosts: 24, Routers: 8, ExtraLinks: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		net  *topology.Network
	}{
		{"paper", netgen.PaperExample().Network},
		{"mesh", mesh.Network},
		{"campus100", campus100(t).Network},
	} {
		base := tc.net
		want := base.Links()
		var prev [2]topology.NodeID
		for i, l := range want {
			if l.ID != topology.LinkID(i) {
				t.Fatalf("%s: link %d has ID %d", tc.name, i, l.ID)
			}
			e := ends(l)
			if i > 0 && slices.Compare(prev[:], e[:]) >= 0 {
				t.Fatalf("%s: link %v follows %v, out of sorted endpoint order", tc.name, l, want[i-1])
			}
			prev = e
		}
		hosts := base.Hosts()
		opts := topology.RouteOptions{MaxRoutes: 4, MaxHops: 12}
		wantRoutes := topology.NewRouteTable(base, opts)
		reversed := base.Links()
		slices.Reverse(reversed)
		orders := map[string]*topology.Network{"reversed": connected(t, base, reversed)}
		for seed := int64(1); seed <= 3; seed++ {
			orders[fmt.Sprintf("seed%d", seed)] = scrambled(t, base, seed)
		}
		for order, got := range orders {
			if !slices.EqualFunc(got.Links(), want, func(x, y topology.Link) bool { return x.ID == y.ID && ends(x) == ends(y) }) {
				t.Fatalf("%s %s: links %v, want %v", tc.name, order, got.Links(), want)
			}
			for id := 0; id < base.NumNodes(); id++ {
				if a, b := got.AdjacentLinks(topology.NodeID(id)), base.AdjacentLinks(topology.NodeID(id)); !slices.Equal(a, b) {
					t.Fatalf("%s %s node %d: adjacency %v, want %v", tc.name, order, id, a, b)
				}
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s %s: %v", tc.name, order, err)
			}
			gotRoutes := topology.NewRouteTable(got, opts)
			for i, src := range hosts {
				for _, dst := range hosts[i+1:] {
					a, _ := gotRoutes.Routes(src, dst)
					b, _ := wantRoutes.Routes(src, dst)
					if !sameRoutes(a, b) {
						t.Fatalf("%s %s pair %d-%d: routes %v, want %v", tc.name, order, src, dst, a, b)
					}
				}
			}
		}
	}
}

// BenchmarkConnectReversedCampus1000 builds a 1000-host campus with its
// links connected in reverse sorted order, so that every Connect inserts
// below all earlier links and renumbers them: the worst case of keeping
// LinkIDs in sorted endpoint order.
func BenchmarkConnectReversedCampus1000(b *testing.B) {
	p, err := netgen.Campus(netgen.CampusConfig{Hosts: 1000, Seed: 1000})
	if err != nil {
		b.Fatal(err)
	}
	links := p.Network.Links()
	slices.Reverse(links)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		connected(b, p.Network, links)
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
