package spec_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/isolation"
	"configsynth/internal/netgen"
	"configsynth/internal/spec"
	"configsynth/internal/topology"
)

// TestFingerprintTwinsShareVerifiedDesigns is the first relation of the
// metamorphic oracle over the spec: a text and its twin with the `link`
// lines shuffled have one fingerprint, so a design proven for one is
// what the cache serves for the other, and it must pass Verify on both.
// Each of 20 generated networks (20 hosts, 16 routers) is written out,
// its links shuffled, both texts parsed and solved under three slider
// sets at MaxRoutes 4 and 8, and each design checked on its own text and,
// with its links mapped by endpoints, on its twin. -short runs seeds
// 10 and 20 at MaxRoutes 4, where a design once failed both checks.
func TestFingerprintTwinsShareVerifiedDesigns(t *testing.T) {
	sliders := []core.Thresholds{
		{IsolationTenths: 50, UsabilityTenths: 30, CostBudget: 600},
		{IsolationTenths: 70, UsabilityTenths: 20, CostBudget: 2000},
		{IsolationTenths: 30, UsabilityTenths: 60, CostBudget: 300},
	}
	seeds, caps := []int64{10, 20}, []int{4}
	if !testing.Short() {
		seeds, caps = nil, []int{4, 8}
		for s := int64(1); s <= 20; s++ {
			seeds = append(seeds, s)
		}
	}
	solved := 0
	for _, seed := range seeds {
		text, twin := twinTexts(t, seed)
		for _, maxRoutes := range caps {
			for _, th := range sliders {
				name := fmt.Sprintf("seed=%d/maxroutes=%d/%d-%d-%d", seed, maxRoutes,
					th.IsolationTenths, th.UsabilityTenths, th.CostBudget)
				own, other := parseAt(t, text, th, maxRoutes), parseAt(t, twin, th, maxRoutes)
				if spec.Fingerprint(own) != spec.Fingerprint(other) {
					t.Fatalf("%s: shuffling link lines changed the fingerprint", name)
				}
				for _, pair := range [][2]*core.Problem{{own, other}, {other, own}} {
					syn, err := core.NewSynthesizer(pair[0])
					if err != nil {
						t.Fatal(err)
					}
					d, err := syn.Solve()
					if core.IsUnsat(err) {
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					solved++
					verifyOn(t, name+" own text", pair[0], d)
					verifyOn(t, name+" twin", pair[1], mapLinks(t, d, pair[0].Network, pair[1].Network))
				}
			}
		}
	}
	if solved == 0 {
		t.Fatal("every instance is unsat: the sweep checks no design")
	}
}

// twinTexts writes a generated problem as spec text, and again with its
// link lines shuffled.
func twinTexts(t *testing.T, seed int64) (string, string) {
	t.Helper()
	text := generatedText(t, seed)
	return text, shuffled(text, "link ", seed)
}

// generatedText writes a generated 20-host, 16-router problem as spec
// text.
func generatedText(t *testing.T, seed int64) string {
	t.Helper()
	p, err := netgen.Generate(netgen.Config{Hosts: 20, Routers: 16, MaxServices: 2, CRFraction: 0.1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := spec.WriteProblem(&sb, p); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// shuffled returns text with the lines that start with prefix shuffled
// among their own places.
func shuffled(text, prefix string, seed int64) string {
	lines := strings.Split(text, "\n")
	var at []int
	for i, l := range lines {
		if strings.HasPrefix(l, prefix) {
			at = append(at, i)
		}
	}
	picked := make([]string, len(at))
	for i, j := range at {
		picked[i] = lines[j]
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
	for i, j := range at {
		lines[j] = picked[i]
	}
	return strings.Join(lines, "\n")
}

// TestFingerprintTwinsSearchAlike: a text and its twins with the `link`
// lines or the `require` lines shuffled encode byte for byte alike — one
// solver digest before the search — and search alike: one Stats after
// Solve, the model's shape and every solver counter. So the answer the
// cache serves for a twin is the one its own solve would have found,
// with the same effort. Ten generated networks at 5.0/3.0/$600; -short
// runs seeds 10 and 20.
func TestFingerprintTwinsSearchAlike(t *testing.T) {
	th := core.Thresholds{IsolationTenths: 50, UsabilityTenths: 30, CostBudget: 600}
	seeds := []int64{10, 20}
	if !testing.Short() {
		seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	for _, seed := range seeds {
		text := generatedText(t, seed)
		want, wantStats := digestAndStats(t, parseAt(t, text, th, 4))
		for _, prefix := range []string{"link ", "require "} {
			twin := shuffled(text, prefix, seed)
			if twin == text {
				t.Fatalf("seed=%d: shuffling %q lines left the text as it was", seed, prefix)
			}
			got, gotStats := digestAndStats(t, parseAt(t, twin, th, 4))
			if got != want {
				t.Errorf("seed=%d: shuffling %q lines changed the encode: digest %s, want %s", seed, prefix, got, want)
			}
			if gotStats != wantStats {
				t.Errorf("seed=%d: shuffling %q lines changed the search:\n got %+v\nwant %+v", seed, prefix, gotStats, wantStats)
			}
		}
	}
}

// digestAndStats returns the digest of p's freshly encoded solver and
// its Stats after Solve.
func digestAndStats(t *testing.T, p *core.Problem) (string, core.ModelStats) {
	t.Helper()
	syn, err := core.NewSynthesizer(p)
	if err != nil {
		t.Fatal(err)
	}
	digest := syn.Digest()
	if _, err := syn.Solve(); err != nil && !core.IsUnsat(err) {
		t.Fatal(err)
	}
	return digest, syn.Stats()
}

func parseAt(t *testing.T, text string, th core.Thresholds, maxRoutes int) *core.Problem {
	t.Helper()
	p, err := spec.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	p.Thresholds = th
	p.Options.Routes.MaxRoutes = maxRoutes
	return p
}

func verifyOn(t *testing.T, name string, p *core.Problem, d *core.Design) {
	t.Helper()
	res, err := core.Verify(p, d)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.OK() {
		t.Errorf("%s: Verify: %v", name, res.Violations)
	}
}

// mapLinks renumbers a design's placements from one network's LinkIDs to
// another's, by link endpoints.
func mapLinks(t *testing.T, d *core.Design, from, to *topology.Network) *core.Design {
	t.Helper()
	out := *d
	out.Placements = make(map[topology.LinkID][]isolation.DeviceID, len(d.Placements))
	for id, devs := range d.Placements {
		l, _ := from.Link(id)
		mapped, ok := to.LinkBetween(l.A, l.B)
		if !ok {
			t.Fatalf("link %d-%d is missing from the twin", l.A, l.B)
		}
		out.Placements[mapped] = devs
	}
	return &out
}
