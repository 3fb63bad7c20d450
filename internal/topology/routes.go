package topology

import (
	"fmt"
	"slices"
	"sync"
)

// RouteOptions bounds route enumeration. Zero values select defaults.
type RouteOptions struct {
	// MaxRoutes caps the number of routes returned per pair (default 8).
	MaxRoutes int
	// MaxHops caps the route length in links (default 16).
	MaxHops int
}

// Normalized returns the options with defaults filled in, exposing the
// effective caps to canonical problem serialization.
func (o RouteOptions) Normalized() RouteOptions { return o.withDefaults() }

func (o RouteOptions) withDefaults() RouteOptions {
	if o.MaxRoutes <= 0 {
		o.MaxRoutes = 8
	}
	if o.MaxHops <= 0 {
		o.MaxHops = 16
	}
	return o
}

// Route is an ordered sequence of link IDs forming a simple path.
type Route []LinkID

// Routes enumerates simple paths from src to dst whose interior nodes are
// routers (traffic is not forwarded through hosts). A pair of nodes has
// one route set, searched from its smaller endpoint: shorter routes
// first, ties broken lexicographically by link ID, under the caps in
// opts. For src > dst the routes are those of (dst, src), each reversed,
// so a flow and its reverse cross the same links whichever endpoint asks.
//
// It is a one-pair RouteTable: a caller that asks for more than a
// handful of pairs of one network under one set of options keeps the
// table, which keeps its scratch and never enumerates a pair twice.
func (n *Network) Routes(src, dst NodeID, opts RouteOptions) ([]Route, error) {
	return NewRouteTable(n, opts).Routes(src, dst)
}

// reversed returns a copy of routes with each route's links in reverse
// order.
func reversed(routes []Route) (out []Route) {
	for _, r := range routes {
		out = append(out, slices.Clone(r))
		slices.Reverse(out[len(out)-1])
	}
	return out
}

// RouteTable holds the routes of one network under one set of options,
// enumerating each pair the first time it is asked for. Like
// Network.Routes it searches a pair once, from its smaller endpoint; the
// routes of (b, a) with a < b are those of (a, b) reversed, built once
// and kept under their own entry.
//
// Hosts with a single link, to a router, share their searches: every
// route from such a host h to such a host g is h's link, a router path
// from h's router to g's, and g's link, and the search decides nothing
// by the two end links (see enumerator.search). The first pair asked of
// an ordered router pair is searched; the rest copy its routes with
// their own first and last link. On a campus of 100 hosts that is a few
// dozen searches for five thousand pairs.
//
// A table belongs to one request — a decomposed solve, an encode, a
// verification — and dies with it. It is deliberately not a field of
// Network: networks are retained long after a request (the service's
// finished-job ring keeps every job's problem), and the routes of a
// 100-host campus are several times the size of the graph. The network
// must not be mutated while a table over it is in use.
//
// A table is safe for concurrent use. The returned routes are shared
// between callers and must not be modified.
type RouteTable struct {
	net  *Network
	opts RouteOptions // defaults applied

	mu      sync.Mutex
	routes  map[uint64][]Route // by pairKey(src, dst), either direction
	nRoutes int                // total over the entries
	// shared holds, per ordered pair of routers, the routes of the first
	// pair of single-link hosts on them that was searched.
	shared map[uint64][]Route
	enum   enumerator
}

// pairKey packs an ordered pair of valid (non-negative) node IDs into
// one word, which the runtime's maps hash faster than a two-ID array.
func pairKey(a, b NodeID) uint64 { return uint64(a)<<32 | uint64(b) }

// NewRouteTable returns an empty table over n.
func NewRouteTable(n *Network, opts RouteOptions) *RouteTable {
	return &RouteTable{
		net:    n,
		opts:   opts.withDefaults(),
		routes: make(map[uint64][]Route),
		shared: make(map[uint64][]Route),
	}
}

// Covers reports whether the table's routes are those of n under opts,
// so a callee handed a table can refuse one built for something else.
func (t *RouteTable) Covers(n *Network, opts RouteOptions) bool {
	return t.net == n && t.opts == opts.withDefaults()
}

// Size returns the number of entries (ordered pairs asked for, and the
// searched pair behind each reversal) and the number of routes they
// hold in total.
func (t *RouteTable) Size() (pairs, routes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.routes), t.nRoutes
}

// Routes returns what Network.Routes returns for the pair under the
// table's options.
func (t *RouteTable) Routes(src, dst NodeID) ([]Route, error) {
	if !t.net.valid(src) || !t.net.valid(dst) {
		return nil, fmt.Errorf("%w: %d or %d", ErrUnknownNode, src, dst)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lookup(src, dst), nil
}

// lookup returns the pair's entry, making it first if there is none: by
// search for src <= dst, by reversing the entry of (dst, src) otherwise.
func (t *RouteTable) lookup(src, dst NodeID) []Route {
	key := pairKey(src, dst)
	routes, ok := t.routes[key]
	if !ok {
		if src > dst {
			routes = reversed(t.lookup(dst, src))
		} else {
			routes = t.enumerate(src, dst)
		}
		t.routes[key] = routes
		t.nRoutes += len(routes)
	}
	return routes
}

// enumerate produces the routes of a pair (src < dst) not in the table
// yet: by search, or from the searched routes of another pair of
// single-link hosts on the same two routers.
func (t *RouteTable) enumerate(src, dst NodeID) []Route {
	up, okSrc := t.net.uplink(src)
	down, okDst := t.net.uplink(dst)
	if !okSrc || !okDst || src == dst {
		return t.enum.routes(t.net, src, dst, t.opts)
	}
	routers := pairKey(up.peer, down.peer)
	model, ok := t.shared[routers]
	if !ok {
		model = t.enum.routes(t.net, src, dst, t.opts)
		t.shared[routers] = model
		return model
	}
	if len(model) == 0 {
		return nil
	}
	total := 0
	for _, r := range model {
		total += len(r)
	}
	slab := make([]LinkID, 0, total)
	out := make([]Route, len(model))
	for i, r := range model {
		start := len(slab)
		slab = append(slab, r...)
		slab[start], slab[len(slab)-1] = up.link, down.link
		out[i] = slab[start:len(slab):len(slab)]
	}
	return out
}

// uplink returns the only link of a host whose only link is to a router.
func (n *Network) uplink(id NodeID) (edge, bool) {
	if n.nodes[id].Kind != Host || len(n.adj[id]) != 1 || n.nodes[n.adj[id][0].peer].Kind != Router {
		return edge{}, false
	}
	return n.adj[id][0], true
}

// enumerator is the one route search. Its buffers are scratch: a zero
// value works, and one reused across the pairs of a network (a
// RouteTable's) allocates nothing per search but the routes it returns.
type enumerator struct {
	net       *Network
	dst       NodeID
	maxHops   int
	searchCap int

	visited []bool   // per node; all false between searches
	path    []LinkID // links from src to the node being expanded
	// Candidate routes in discovery order, back to back in links; the
	// i-th is links[ends[i-1]:ends[i]].
	links []LinkID
	ends  []int
	order []int // candidate indices, sorted shortest-first
}

func (e *enumerator) candidate(i int) []LinkID {
	start := 0
	if i > 0 {
		start = e.ends[i-1]
	}
	return e.links[start:e.ends[i]]
}

// routes runs the search for one pair. opts has its defaults applied and
// both nodes are valid.
func (e *enumerator) routes(n *Network, src, dst NodeID, opts RouteOptions) []Route {
	if src == dst {
		return nil
	}
	// DFS may enumerate exponentially many paths in dense cores; stop
	// collecting after a generous multiple of the requested cap so the
	// shortest-first sort below still has candidates to choose from.
	e.net, e.dst, e.maxHops = n, dst, opts.MaxHops
	e.searchCap = max(opts.MaxRoutes*4, 32)
	if len(e.visited) < len(n.nodes) {
		e.visited = make([]bool, len(n.nodes))
	}
	e.path, e.links, e.ends, e.order = e.path[:0], e.links[:0], e.ends[:0], e.order[:0]

	e.visited[src] = true
	e.search(src)
	e.visited[src] = false
	if len(e.ends) == 0 {
		return nil
	}

	for i := range e.ends {
		e.order = append(e.order, i)
	}
	// Two simple paths never share a link sequence (Connect refuses
	// parallel links), so this order is total and any sort yields it.
	slices.SortFunc(e.order, func(i, j int) int {
		a, b := e.candidate(i), e.candidate(j)
		if len(a) != len(b) {
			return len(a) - len(b)
		}
		return slices.Compare(a, b)
	})
	keep := e.order[:min(len(e.order), opts.MaxRoutes)]

	// The kept routes leave in one slab of their exact size: the scratch
	// is reused by the next pair, and a retained table should hold no
	// more than it returns.
	total := 0
	for _, i := range keep {
		total += len(e.candidate(i))
	}
	slab := make([]LinkID, 0, total)
	out := make([]Route, len(keep))
	for k, i := range keep {
		start := len(slab)
		slab = append(slab, e.candidate(i)...)
		out[k] = slab[start:len(slab):len(slab)]
	}
	return out
}

// search extends the path at node at, visiting neighbours in link order.
// Connect appends to both adjacency lists under a LinkID larger than any
// before it, so n.adj[at] is already in that order and the step neither
// copies nor sorts it (Validate checks the invariant).
//
// What RouteTable's sharing rests on: between a host h whose one link
// leads to router r and a host g whose one link hangs off router q, the
// search steps from h to r and from there decides by the adjacency
// lists, the routers visited, the lengths of path and candidate list
// and the caps — never by which link h or g hangs on. g is met only in
// q's scan, q is visited meanwhile, so nothing below q finds g again and
// where in the scan g's link sits changes no candidate. Every candidate
// is h's link, a router path, g's link; their order, decided by the
// router paths, and the cut at MaxRoutes are those of any other such
// pair on (r, q).
func (e *enumerator) search(at NodeID) {
	if len(e.path) >= e.maxHops || len(e.ends) >= e.searchCap {
		return
	}
	n := e.net
	for _, ed := range n.adj[at] {
		if ed.peer == e.dst {
			e.links = append(append(e.links, e.path...), ed.link)
			e.ends = append(e.ends, len(e.links))
			continue
		}
		if n.nodes[ed.peer].Kind != Router || e.visited[ed.peer] {
			continue
		}
		e.visited[ed.peer] = true
		e.path = append(e.path, ed.link)
		e.search(ed.peer)
		e.path = e.path[:len(e.path)-1]
		e.visited[ed.peer] = false
	}
}
