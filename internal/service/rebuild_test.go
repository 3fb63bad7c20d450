package service

import (
	"math/rand"
	"slices"
	"testing"

	"configsynth/internal/topology"
)

// TestRebuildNetworkKeepsLinkOrder drops and adds links on a network
// whose links were declared in a shuffled order. Route enumeration
// visits neighbours in adjacency order and relies on that being link
// order; topology.Validate checks it (topology's
// TestAdjacencyStaysInLinkOrder shows it rejects a list that is not), so
// the rebuilt network must validate, and it must equal a network built
// fresh from the same link set: the same links, in the orientation they
// were declared in, under the same IDs.
func TestRebuildNetworkKeepsLinkOrder(t *testing.T) {
	n := topology.New()
	h1, h2 := n.AddHost("h1"), n.AddHost("h2")
	var rs []topology.NodeID
	for i := 0; i < 6; i++ {
		rs = append(rs, n.AddRouter(""))
	}
	var links [][2]topology.NodeID
	for i := range rs {
		for j := i + 1; j < len(rs); j++ {
			if i == 0 && j == 5 {
				continue // left out so the delta can add it
			}
			links = append(links, [2]topology.NodeID{rs[j], rs[i]})
		}
	}
	links = append(links, [2]topology.NodeID{h1, rs[0]}, [2]topology.NodeID{rs[5], h2})
	rand.New(rand.NewSource(7)).Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	for _, l := range links {
		if _, err := n.Connect(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}

	drop := []LinkRef{{A: rs[1], B: rs[2]}, {A: rs[4], B: rs[3]}}
	add := []LinkRef{{A: rs[5], B: rs[0]}}
	nn, err := rebuildNetwork(n, add, drop)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.Validate(); err != nil {
		t.Fatalf("rebuilt network: %v", err)
	}

	fresh := topology.New()
	for id := 0; id < n.NumNodes(); id++ {
		if nd, _ := n.Node(topology.NodeID(id)); nd.Kind == topology.Host {
			fresh.AddHost(nd.Name)
		} else {
			fresh.AddRouter(nd.Name)
		}
	}
	for _, l := range append(links, [2]topology.NodeID{rs[5], rs[0]}) {
		if pairKey(l[0], l[1]) == pairKey(rs[1], rs[2]) || pairKey(l[0], l[1]) == pairKey(rs[3], rs[4]) {
			continue
		}
		if _, err := fresh.Connect(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := nn.Links(), fresh.Links(); !slices.Equal(got, want) {
		t.Fatalf("rebuilt links %v, want %v", got, want)
	}
}
