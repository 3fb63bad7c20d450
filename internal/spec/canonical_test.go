package spec

import (
	"strings"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/netgen"
)

// permutedExample is exampleInput with every repeatable section shuffled:
// links reversed, requirements swapped, order constraints swapped, and
// the directives interleaved differently. It denotes the same problem.
const permutedExample = `
sliders 2.5 5 30
require 2 4
link 5 6
link 4 6
link 3 6
# hosts 1..4, routers 5..6
nodes 4 2
link 2 5
link 1 5
order 2 3 2
order 1 2 2
costs 5 8 6
devices 3
services 1
require 1 3
`

func TestFingerprintOrderInsensitive(t *testing.T) {
	a, err := Parse(strings.NewReader(exampleInput))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse(strings.NewReader(permutedExample))
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := Fingerprint(a), Fingerprint(b)
	if fa != fb {
		t.Errorf("permuting input sections changed the fingerprint:\n%s\nvs\n%s\ncanonical A:\n%s\ncanonical B:\n%s",
			fa, fb, Canonical(a), Canonical(b))
	}
}

func TestFingerprintStableAcrossCalls(t *testing.T) {
	p := parseExample(t)
	if Fingerprint(p) != Fingerprint(p) {
		t.Fatal("fingerprint of the same problem is not stable")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := parseExample(t)
	fp := Fingerprint(base)

	mutants := map[string]func(p *core.Problem){
		"isolation threshold": func(p *core.Problem) { p.Thresholds.IsolationTenths++ },
		"cost budget":         func(p *core.Problem) { p.Thresholds.CostBudget++ },
		"probe budget":        func(p *core.Problem) { p.Options.ProbeBudget = 7 },
		"tunnel slack":        func(p *core.Problem) { p.Options.TunnelSlackHops = 3 },
		"dropped flow":        func(p *core.Problem) { p.Flows = p.Flows[1:] },
	}
	for name, mutate := range mutants {
		t.Run(name, func(t *testing.T) {
			q, err := Parse(strings.NewReader(exampleInput))
			if err != nil {
				t.Fatal(err)
			}
			mutate(q)
			if Fingerprint(q) == fp {
				t.Errorf("mutating %s did not change the fingerprint", name)
			}
		})
	}
}

func TestFingerprintDefaultedOptionsMatch(t *testing.T) {
	a := parseExample(t)
	b := parseExample(t)
	// Explicitly setting the defaults must hash like leaving them zero.
	b.Options.TunnelSlackHops = 2
	b.Options.AlphaPct = 75
	b.Options.ProbeBudget = 200_000
	b.Options.Routes.MaxRoutes = 8
	b.Options.Routes.MaxHops = 16
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("explicit default options changed the fingerprint")
	}
	// Execution knobs must not affect the key.
	b.Options.Workers = 8
	b.Options.Verify = true
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("worker count or verify mode changed the fingerprint")
	}
}

func TestFingerprintPaperExample(t *testing.T) {
	a := netgen.PaperExample()
	b := netgen.PaperExample()
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("two builds of the paper example disagree")
	}
}

func TestFingerprintPreplacements(t *testing.T) {
	a := parseExample(t)
	b := parseExample(t)
	link := b.Network.Links()[0]
	b.Preplaced = []core.Preplacement{{A: link.A, B: link.B, Dev: 1}}
	if Fingerprint(a) == Fingerprint(b) {
		t.Error("adding a preplacement did not change the fingerprint")
	}
	// Declaration order and endpoint order within a preplacement are not
	// semantic.
	links := b.Network.Links()
	c := parseExample(t)
	c.Preplaced = []core.Preplacement{
		{A: links[1].A, B: links[1].B, Dev: 2},
		{A: link.B, B: link.A, Dev: 1},
	}
	d := parseExample(t)
	d.Preplaced = []core.Preplacement{
		{A: link.A, B: link.B, Dev: 1},
		{A: links[1].B, B: links[1].A, Dev: 2},
	}
	if Fingerprint(c) != Fingerprint(d) {
		t.Error("preplacement declaration order changed the fingerprint")
	}
}

func TestFingerprintVersionBumpChangesEveryFingerprint(t *testing.T) {
	// A format-version bump must change the fingerprint of every
	// problem, not just some: a cluster node built at a newer version
	// must never find a match in an older peer's cache, whatever the
	// problem looks like.
	probs := map[string]*core.Problem{
		"paper example": netgen.PaperExample(),
		"parsed spec":   parseExample(t),
	}
	gen, err := netgen.Generate(netgen.Config{
		Hosts: 8, Routers: 3, Seed: 11, CRFraction: 0.2,
		Thresholds: core.Thresholds{IsolationTenths: 40, UsabilityTenths: 40, CostBudget: 80},
	})
	if err != nil {
		t.Fatal(err)
	}
	probs["generated"] = gen
	for name, p := range probs {
		k := KeyOf(p)
		cur := k.at(FingerprintVersion, p.Thresholds)
		if cur != Fingerprint(p) {
			t.Errorf("%s: at(FingerprintVersion) disagrees with Fingerprint", name)
		}
		if next := k.at(FingerprintVersion+1, p.Thresholds); next == cur {
			t.Errorf("%s: version bump did not change the fingerprint", name)
		}
		if prev := k.at(FingerprintVersion-1, p.Thresholds); prev == cur {
			t.Errorf("%s: version rollback did not change the fingerprint", name)
		}
	}
}
