package spec

import (
	"math/rand"
	"slices"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// TestGoldenTwinsEncodeAlike: a golden problem and its twins — its links
// connected in another order, each other one in the other orientation,
// or its connectivity requirements declared in another order — have one
// fingerprint and encode byte for byte alike: one solver digest, which
// covers the template's clauses, watch lists, root trail and PB store
// and the problem's own guards.
func TestGoldenTwinsEncodeAlike(t *testing.T) {
	for name, p := range goldenProblems(t) {
		want := solverDigest(t, p)
		twins := map[string]*core.Problem{"link": linkTwin(t, p), "require": requireTwin(p)}
		for kind, twin := range twins {
			if Fingerprint(twin) != Fingerprint(p) {
				t.Fatalf("%s: the %s twin has another fingerprint", name, kind)
			}
			if got := solverDigest(t, twin); got != want {
				t.Errorf("%s: the %s twin encodes to digest %s, want %s", name, kind, got, want)
			}
		}
	}
}

func solverDigest(t *testing.T, p *core.Problem) string {
	t.Helper()
	syn, err := core.NewSynthesizer(p)
	if err != nil {
		t.Fatal(err)
	}
	return syn.Digest()
}

// linkTwin is p with its links connected in a shuffled order, every
// other one with its endpoints swapped.
func linkTwin(t *testing.T, p *core.Problem) *core.Problem {
	t.Helper()
	net := topology.New()
	for id := 0; id < p.Network.NumNodes(); id++ {
		if n, _ := p.Network.Node(topology.NodeID(id)); n.Kind == topology.Host {
			net.AddHost(n.Name)
		} else {
			net.AddRouter(n.Name)
		}
	}
	links := p.Network.Links()
	rand.New(rand.NewSource(int64(len(links)))).Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	for i, l := range links {
		if i%2 == 1 {
			l.A, l.B = l.B, l.A
		}
		if _, err := net.Connect(l.A, l.B); err != nil {
			t.Fatal(err)
		}
	}
	q := *p
	q.Network = net
	return &q
}

// requireTwin is p with its connectivity requirements declared in
// reverse order.
func requireTwin(p *core.Problem) *core.Problem {
	reqs := usability.NewRequirements()
	all := p.Requirements.All()
	slices.Reverse(all)
	for _, f := range all {
		reqs.Require(f)
	}
	q := *p
	q.Requirements = reqs
	return &q
}
