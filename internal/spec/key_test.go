package spec

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/netgen"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// keyProblems are the golden problems and the generated networks of the
// twin tests (20 hosts, 16 routers, seeds 1-5).
func keyProblems(t *testing.T) map[string]*core.Problem {
	t.Helper()
	probs := goldenProblems(t)
	for seed := int64(1); seed <= 5; seed++ {
		p, err := netgen.Generate(netgen.Config{
			Hosts: 20, Routers: 16, MaxServices: 2, CRFraction: 0.1, Seed: seed,
			Thresholds: core.Thresholds{IsolationTenths: 50, UsabilityTenths: 30, CostBudget: 600},
		})
		if err != nil {
			t.Fatal(err)
		}
		probs[fmt.Sprintf("twin-%d", seed)] = p
	}
	return probs
}

// TestKeyRelations: a problem's fingerprint and family fingerprint are
// its key at its own thresholds and at zero thresholds, and a spec's key
// is that of the problem it builds.
func TestKeyRelations(t *testing.T) {
	written := 0
	for name, p := range keyProblems(t) {
		k := KeyOf(p)
		if got, want := k.At(p.Thresholds), Fingerprint(p); got != want {
			t.Errorf("%s: KeyOf(p).At(p.Thresholds) %.12s, Fingerprint(p) %.12s", name, got, want)
		}
		if got, want := k.At(core.Thresholds{}), FamilyFingerprint(p); got != want {
			t.Errorf("%s: KeyOf(p).At(zero) %.12s, FamilyFingerprint(p) %.12s", name, got, want)
		}
		q := *p
		q.Thresholds = core.Thresholds{IsolationTenths: 1, UsabilityTenths: 2, CostBudget: 3}
		if KeyOf(&q) != k {
			t.Errorf("%s: changing the thresholds changed the key", name)
		}
		q.Options.ProbeBudget = 7
		if KeyOf(&q) == k {
			t.Errorf("%s: changing the options left the key as it was", name)
		}

		var sb strings.Builder
		if err := WriteProblem(&sb, p); err != nil {
			continue // policies or custom options: the grammar cannot say them
		}
		sp, err := Scan(sb.String())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sp.Key() != KeyOf(sp.Problem()) {
			t.Errorf("%s: (*Spec).Key() differs from KeyOf(sp.Problem())", name)
		}
		if got, want := sp.Fingerprint(), sp.Key().At(sp.Thresholds()); got != want {
			t.Errorf("%s: (*Spec).Fingerprint %.12s, its key at its thresholds %.12s", name, got, want)
		}
		written++
	}
	if written < 8 {
		t.Fatalf("only %d problems round-tripped through the grammar", written)
	}
}

// TestKeyIgnoresDeclarationOrder: reordering a problem's flows, links
// and requirements leaves its key as it was.
func TestKeyIgnoresDeclarationOrder(t *testing.T) {
	for name, p := range keyProblems(t) {
		q := reordered(p, int64(len(name)))
		if KeyOf(q) != KeyOf(p) {
			t.Errorf("%s: reordering flows, links and requirements changed the key", name)
		}
	}
}

// reordered is p with its flows shuffled, its links connected in reverse
// order and its requirements required in reverse order.
func reordered(p *core.Problem, seed int64) *core.Problem {
	q := *p
	q.Flows = slices.Clone(p.Flows)
	rand.New(rand.NewSource(seed)).Shuffle(len(q.Flows), func(i, j int) {
		q.Flows[i], q.Flows[j] = q.Flows[j], q.Flows[i]
	})
	net := topology.New()
	for id := 0; id < p.Network.NumNodes(); id++ {
		if n, _ := p.Network.Node(topology.NodeID(id)); n.Kind == topology.Host {
			net.AddHost(n.Name)
		} else {
			net.AddRouter(n.Name)
		}
	}
	links := p.Network.Links()
	for i := len(links) - 1; i >= 0; i-- {
		_, _ = net.Connect(links[i].B, links[i].A)
	}
	q.Network = net
	if p.Requirements != nil {
		req := p.Requirements.All()
		q.Requirements = usability.NewRequirements()
		for i := len(req) - 1; i >= 0; i-- {
			q.Requirements.Require(req[i])
		}
	}
	return &q
}
