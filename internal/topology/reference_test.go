package topology

import "sort"

// ReferenceRoutes is the route enumerator as it stood before the
// allocation-free search replaced it, kept verbatim as the oracle of the
// differential tests: every step copies the adjacency list and sorts it
// by link ID, every candidate is its own allocation, and the candidates
// are ordered by a stable reflective sort. A pair has one route set: for
// src > dst it searches from dst and reverses each route it keeps.
func (n *Network) ReferenceRoutes(src, dst NodeID, opts RouteOptions) ([]Route, error) {
	if !n.valid(src) || !n.valid(dst) {
		return nil, ErrUnknownNode
	}
	if src == dst {
		return nil, nil
	}
	if src > dst {
		found, err := n.ReferenceRoutes(dst, src, opts)
		for _, r := range found {
			for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
				r[i], r[j] = r[j], r[i]
			}
		}
		return found, err
	}
	opts = opts.withDefaults()
	searchCap := opts.MaxRoutes * 4
	if searchCap < 32 {
		searchCap = 32
	}

	visited := make([]bool, len(n.nodes))
	visited[src] = true
	var (
		path   Route
		found  []Route
		search func(at NodeID) bool
	)
	search = func(at NodeID) bool {
		if len(path) >= opts.MaxHops || len(found) >= searchCap {
			return false
		}
		edges := n.adj[at]
		order := make([]edge, len(edges))
		copy(order, edges)
		sort.Slice(order, func(i, j int) bool { return order[i].link < order[j].link })
		for _, e := range order {
			if e.peer == dst {
				r := make(Route, len(path)+1)
				copy(r, path)
				r[len(path)] = e.link
				found = append(found, r)
				continue
			}
			nd := n.nodes[e.peer]
			if nd.Kind != Router || visited[e.peer] {
				continue
			}
			visited[e.peer] = true
			path = append(path, e.link)
			search(e.peer)
			path = path[:len(path)-1]
			visited[e.peer] = false
		}
		return false
	}
	search(src)
	sort.SliceStable(found, func(i, j int) bool {
		if len(found[i]) != len(found[j]) {
			return len(found[i]) < len(found[j])
		}
		for k := range found[i] {
			if found[i][k] != found[j][k] {
				return found[i][k] < found[j][k]
			}
		}
		return false
	})
	if len(found) > opts.MaxRoutes {
		found = found[:opts.MaxRoutes]
	}
	return found, nil
}

// ReferenceConnected is Connected as it stood when it asked the route
// enumerator: the oracle for the breadth-first Validate.
func (n *Network) ReferenceConnected(src, dst NodeID) bool {
	routes, err := n.ReferenceRoutes(src, dst, RouteOptions{})
	return err == nil && len(routes) > 0
}

// SwapAdjacency exchanges two entries of a node's adjacency list,
// breaking the link-order invariant the way no public call can.
func (n *Network) SwapAdjacency(id NodeID, i, j int) {
	n.adj[id][i], n.adj[id][j] = n.adj[id][j], n.adj[id][i]
}

// AdjacentLinks returns the link IDs of a node's adjacency list in
// stored order.
func (n *Network) AdjacentLinks(id NodeID) []LinkID {
	out := make([]LinkID, len(n.adj[id]))
	for i, e := range n.adj[id] {
		out[i] = e.link
	}
	return out
}
