package main

import (
	"fmt"
	"math/rand"
	"strings"

	"configsynth/internal/core"
	"configsynth/internal/spec"
)

// specParams are the generator parameters of one grammar spec: a random
// recursive tree of routers with a few chords, every host attached to a
// random router, all-pairs flows for each service (the only flow shape
// the wire grammar can express), and a tenth of the flows required.
// Everything but the sliders is drawn from GenSeed.
type specParams struct {
	GenSeed    int64 `json:"gen_seed"`
	Hosts      int   `json:"hosts"`
	Routers    int   `json:"routers"`
	Services   int   `json:"services"`
	IsoTenths  int   `json:"iso_tenths"`
	UsaTenths  int   `json:"usa_tenths"`
	CostBudget int64 `json:"cost_budget"`
}

// specText is a spec split into the blocks whose internal line order
// the canonical fingerprint ignores, so a request can permute them.
type specText struct {
	nodes    string
	links    []string
	services string
	requires []string
	sliders  string
}

// generate draws the spec for the parameters. The same parameters give
// the same lines in the same order.
func (sp specParams) generate() *specText {
	rng := rand.New(rand.NewSource(sp.GenSeed))
	h, r := sp.Hosts, sp.Routers
	t := &specText{
		nodes:    fmt.Sprintf("nodes %d %d", h, r),
		services: fmt.Sprintf("services %d", sp.Services),
		sliders: fmt.Sprintf("sliders %d.%d %d.%d %d",
			sp.IsoTenths/10, sp.IsoTenths%10, sp.UsaTenths/10, sp.UsaTenths%10, sp.CostBudget),
	}
	linked := map[[2]int]bool{}
	link := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		if a == b || linked[[2]int{a, b}] {
			return
		}
		linked[[2]int{a, b}] = true
		t.links = append(t.links, fmt.Sprintf("link %d %d", a, b))
	}
	for i := 1; i < r; i++ {
		link(h+1+i, h+1+rng.Intn(i))
	}
	for i := 0; i < r/4; i++ {
		link(h+1+rng.Intn(r), h+1+rng.Intn(r))
	}
	for i := 1; i <= h; i++ {
		link(i, h+1+rng.Intn(r))
	}
	required := map[[3]int]bool{}
	for i := h * (h - 1) * sp.Services / 10; i > 0; i-- {
		k := [3]int{1 + rng.Intn(h), 1 + rng.Intn(h), 1 + rng.Intn(sp.Services)}
		if k[0] == k[1] || required[k] {
			continue
		}
		required[k] = true
		t.requires = append(t.requires, fmt.Sprintf("require %d %d %d", k[0], k[1], k[2]))
	}
	return t
}

// render writes the spec, with link and require lines shuffled by rng
// (nil keeps generation order). The shuffle changes the bytes and
// nothing the fingerprint covers.
func (t *specText) render(rng *rand.Rand) string {
	links, requires := t.links, t.requires
	if rng != nil {
		links = append([]string(nil), links...)
		requires = append([]string(nil), requires...)
		rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
		rng.Shuffle(len(requires), func(i, j int) { requires[i], requires[j] = requires[j], requires[i] })
	}
	var b strings.Builder
	b.WriteString(t.nodes)
	b.WriteByte('\n')
	for _, l := range links {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	b.WriteString(t.services)
	b.WriteByte('\n')
	for _, l := range requires {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	b.WriteString(t.sliders)
	b.WriteByte('\n')
	return b.String()
}

// problem parses the generated spec: the checker's own copy of the
// problem, independent of whatever the server parsed.
func (sp specParams) problem() (*core.Problem, error) {
	return spec.Parse(strings.NewReader(sp.generate().render(nil)))
}
