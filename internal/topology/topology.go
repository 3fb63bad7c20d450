// Package topology models the network as the paper's ⟨N, L⟩ graph: a set
// of nodes N = H ∪ R (hosts and routers) and a set of undirected links L.
// It provides deterministic flow-route enumeration (all simple paths,
// bounded), which the synthesizer uses to place security devices on the
// links of every route between a host pair (paper §III-C).
package topology

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// NodeID identifies a node (host or router).
type NodeID int32

// LinkID identifies an undirected link.
type LinkID int32

// NodeKind distinguishes hosts from routers.
type NodeKind int8

// Node kinds.
const (
	Host NodeKind = iota + 1
	Router
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case Host:
		return "host"
	case Router:
		return "router"
	default:
		return "unknown"
	}
}

// Node is a network element.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string
}

// Link is an undirected connection between two nodes.
type Link struct {
	ID   LinkID
	A, B NodeID
}

// Other returns the endpoint opposite to n, or -1 if n is not an
// endpoint.
func (l Link) Other(n NodeID) NodeID {
	switch n {
	case l.A:
		return l.B
	case l.B:
		return l.A
	default:
		return -1
	}
}

type edge struct {
	peer NodeID
	link LinkID
}

// Network is the topology graph. Build it with AddHost/AddRouter/Connect;
// it is not safe for concurrent mutation.
type Network struct {
	nodes []Node
	links []Link
	// adj[n] lists n's links in increasing LinkID: Connect, the only
	// writer, appends each new link under an ID larger than every
	// earlier one. Route enumeration visits neighbours in this order
	// without sorting.
	adj [][]edge
}

// Errors reported by topology construction and queries.
var (
	ErrUnknownNode   = errors.New("topology: unknown node")
	ErrSelfLink      = errors.New("topology: self link")
	ErrDuplicateLink = errors.New("topology: duplicate link")
)

// New returns an empty network.
func New() *Network {
	return &Network{}
}

func (n *Network) addNode(kind NodeKind, name string) NodeID {
	id := NodeID(len(n.nodes))
	if name == "" {
		name = fmt.Sprintf("%s%d", kind, id)
	}
	n.nodes = append(n.nodes, Node{ID: id, Kind: kind, Name: name})
	n.adj = append(n.adj, nil)
	return id
}

// AddHost adds a host node. An empty name is auto-generated.
func (n *Network) AddHost(name string) NodeID { return n.addNode(Host, name) }

// AddRouter adds a router node. An empty name is auto-generated.
func (n *Network) AddRouter(name string) NodeID { return n.addNode(Router, name) }

// Connect adds an undirected link between a and b.
func (n *Network) Connect(a, b NodeID) (LinkID, error) {
	if !n.valid(a) || !n.valid(b) {
		return -1, fmt.Errorf("%w: %d-%d", ErrUnknownNode, a, b)
	}
	if a == b {
		return -1, fmt.Errorf("%w: %d", ErrSelfLink, a)
	}
	for _, e := range n.adj[a] {
		if e.peer == b {
			return -1, fmt.Errorf("%w: %d-%d", ErrDuplicateLink, a, b)
		}
	}
	id := LinkID(len(n.links))
	n.links = append(n.links, Link{ID: id, A: a, B: b})
	n.adj[a] = append(n.adj[a], edge{peer: b, link: id})
	n.adj[b] = append(n.adj[b], edge{peer: a, link: id})
	return id, nil
}

func (n *Network) valid(id NodeID) bool { return id >= 0 && int(id) < len(n.nodes) }

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) (Node, bool) {
	if !n.valid(id) {
		return Node{}, false
	}
	return n.nodes[id], true
}

// Link returns the link with the given ID.
func (n *Network) Link(id LinkID) (Link, bool) {
	if id < 0 || int(id) >= len(n.links) {
		return Link{}, false
	}
	return n.links[id], true
}

// LinkBetween returns the link connecting a and b, if one exists.
func (n *Network) LinkBetween(a, b NodeID) (LinkID, bool) {
	if !n.valid(a) || !n.valid(b) {
		return -1, false
	}
	for _, e := range n.adj[a] {
		if e.peer == b {
			return e.link, true
		}
	}
	return -1, false
}

// Hosts returns the IDs of all hosts, in insertion order.
func (n *Network) Hosts() []NodeID { return n.byKind(Host) }

// Routers returns the IDs of all routers, in insertion order.
func (n *Network) Routers() []NodeID { return n.byKind(Router) }

func (n *Network) byKind(k NodeKind) []NodeID {
	var out []NodeID
	for _, nd := range n.nodes {
		if nd.Kind == k {
			out = append(out, nd.ID)
		}
	}
	return out
}

// Links returns a copy of all links.
func (n *Network) Links() []Link {
	out := make([]Link, len(n.links))
	copy(out, n.links)
	return out
}

// Sorted returns the network with its links numbered in sorted endpoint
// order — by smaller endpoint, then larger, the order a canonical
// rendering lists them in — or n itself when they already are. LinkIDs,
// and with them the route search's neighbour order, follow the order
// links were connected in; two networks that differ only in that order
// have one Sorted form, and so one route set per pair. Nodes and each
// link's endpoints are kept as they are.
func (n *Network) Sorted() *Network {
	byEnds := func(x, y Link) int {
		return cmp.Or(cmp.Compare(min(x.A, x.B), min(y.A, y.B)), cmp.Compare(max(x.A, x.B), max(y.A, y.B)))
	}
	if slices.IsSortedFunc(n.links, byEnds) {
		return n
	}
	links := slices.Clone(n.links)
	slices.SortFunc(links, byEnds)
	out := &Network{nodes: slices.Clone(n.nodes), adj: make([][]edge, len(n.nodes))}
	for _, l := range links {
		_, _ = out.Connect(l.A, l.B) // n's links: valid, distinct, never to self
	}
	return out
}

// NumNodes returns the total number of nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumLinks returns the total number of links.
func (n *Network) NumLinks() int { return len(n.links) }

// Degree returns the number of links incident to id.
func (n *Network) Degree(id NodeID) int {
	if !n.valid(id) {
		return 0
	}
	return len(n.adj[id])
}

// Connected reports whether at least one route exists between src and
// dst under default options.
func (n *Network) Connected(src, dst NodeID) bool {
	if !n.valid(src) || !n.valid(dst) || src == dst {
		return false
	}
	return n.hopsFrom(src, nil)[dst] > 0
}

// hopsFrom returns, for every node, the length in links of the shortest
// route from src to it under default options, or 0 where there is none
// (and for src itself). Routes forward through routers only, so a
// breadth-first search that expands src and routers and stops at the
// default hop cap finds exactly the nodes Routes would return a route
// for: the shortest path is simple, and the depth-first enumeration is
// exhaustive up to the cap until it has found something. dist is reused
// when it is large enough.
func (n *Network) hopsFrom(src NodeID, dist []int32) []int32 {
	maxHops := int32(RouteOptions{}.withDefaults().MaxHops)
	if len(dist) < len(n.nodes) {
		dist = make([]int32, len(n.nodes))
	}
	clear(dist)
	queue := []NodeID{src}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		if dist[at] == maxHops || (at != src && n.nodes[at].Kind != Router) {
			continue
		}
		for _, e := range n.adj[at] {
			if e.peer != src && dist[e.peer] == 0 {
				dist[e.peer] = dist[at] + 1
				queue = append(queue, e.peer)
			}
		}
	}
	return dist
}

// Validate checks structural sanity: adjacency lists are in link order
// (what route enumeration relies on for its deterministic neighbour
// order), every host attaches to at least one link, and every pair of
// hosts is connected through the router core.
func (n *Network) Validate() error {
	for id, edges := range n.adj {
		for i := 1; i < len(edges); i++ {
			if edges[i-1].link >= edges[i].link {
				return fmt.Errorf("topology: adjacency of node %s is not in link order", n.nodes[id].Name)
			}
		}
	}
	hosts := n.Hosts()
	for _, h := range hosts {
		if len(n.adj[h]) == 0 {
			return fmt.Errorf("topology: host %s has no links", n.nodes[h].Name)
		}
	}
	var dist []int32
	for i, src := range hosts {
		dist = n.hopsFrom(src, dist)
		for _, dst := range hosts[i+1:] {
			if dist[dst] == 0 {
				return fmt.Errorf("topology: hosts %s and %s are not connected",
					n.nodes[src].Name, n.nodes[dst].Name)
			}
		}
	}
	return nil
}

// DOT renders the network in Graphviz format. Device labels, if
// provided, annotate links (used to visualise a synthesized design).
func (n *Network) DOT(linkLabels map[LinkID]string) string {
	var b strings.Builder
	b.WriteString("graph network {\n")
	for _, nd := range n.nodes {
		shape := "ellipse"
		if nd.Kind == Router {
			shape = "box"
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s];\n", nd.ID, nd.Name, shape)
	}
	for _, l := range n.links {
		if lbl, ok := linkLabels[l.ID]; ok && lbl != "" {
			fmt.Fprintf(&b, "  n%d -- n%d [label=%q color=red];\n", l.A, l.B, lbl)
		} else {
			fmt.Fprintf(&b, "  n%d -- n%d;\n", l.A, l.B)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
