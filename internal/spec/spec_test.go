package spec

import (
	"errors"
	"strings"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/isolation"
	"configsynth/internal/usability"
)

const exampleInput = `
# ConfigSynth input in the style of paper Table IV
devices 3
# partial order: 1 (deny) > 2 (trusted), 2 > 3 (inspection)
order 1 2 2
order 2 3 2
costs 5 8 6
nodes 4 2
# hosts 1..4, routers 5..6
link 1 5
link 2 5
link 3 6
link 4 6
link 5 6
services 1
require 1 3
require 2 4
sliders 2.5 5 30
`

func parseExample(t *testing.T) *core.Problem {
	t.Helper()
	p, err := Parse(strings.NewReader(exampleInput))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseExample(t *testing.T) {
	p := parseExample(t)
	if got := len(p.Network.Hosts()); got != 4 {
		t.Errorf("hosts = %d, want 4", got)
	}
	if got := len(p.Network.Routers()); got != 2 {
		t.Errorf("routers = %d, want 2", got)
	}
	if got := p.Network.NumLinks(); got != 5 {
		t.Errorf("links = %d, want 5", got)
	}
	if got := len(p.Flows); got != 12 {
		t.Errorf("flows = %d, want 12 (4·3 pairs × 1 service)", got)
	}
	if got := p.Requirements.Len(); got != 2 {
		t.Errorf("requirements = %d, want 2", got)
	}
	if p.Thresholds.IsolationTenths != 25 {
		t.Errorf("Th_I = %d, want 25", p.Thresholds.IsolationTenths)
	}
	if p.Thresholds.UsabilityTenths != 50 {
		t.Errorf("Th_U = %d, want 50", p.Thresholds.UsabilityTenths)
	}
	if p.Thresholds.CostBudget != 30 {
		t.Errorf("Th_C = %d, want 30", p.Thresholds.CostBudget)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("parsed problem invalid: %v", err)
	}
}

func TestParseRestrictsCatalog(t *testing.T) {
	p := parseExample(t)
	// devices 3 keeps firewall/IPSec/IDS; proxy patterns must be gone.
	if _, ok := p.Catalog.Pattern(isolation.ProxyForwarding); ok {
		t.Error("proxy pattern should be dropped with 3 devices")
	}
	if _, ok := p.Catalog.Pattern(isolation.AccessDeny); !ok {
		t.Error("access deny must remain")
	}
	// Costs applied in order.
	d, _ := p.Catalog.Device(isolation.Firewall)
	if d.Cost != 5 {
		t.Errorf("firewall cost = %d, want 5", d.Cost)
	}
	d, _ = p.Catalog.Device(isolation.IDS)
	if d.Cost != 6 {
		t.Errorf("IDS cost = %d, want 6", d.Cost)
	}
	// Order from the file: deny > trusted > inspection → scores 3,2,1.
	if got := p.Catalog.Score(isolation.AccessDeny); got != 3 {
		t.Errorf("deny score = %d, want 3", got)
	}
	if got := p.Catalog.Score(isolation.PayloadInspection); got != 1 {
		t.Errorf("inspection score = %d, want 1", got)
	}
}

func TestParseEndToEndSolve(t *testing.T) {
	p := parseExample(t)
	syn, err := core.NewSynthesizer(p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := syn.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if d.Isolation < 2.5 {
		t.Errorf("achieved isolation %.2f below threshold 2.5", d.Isolation)
	}
	if d.Cost > 30 {
		t.Errorf("cost %d exceeds budget", d.Cost)
	}
	// Required flows must not be denied.
	for _, f := range p.Requirements.All() {
		if d.FlowPatterns[f] == isolation.AccessDeny {
			t.Errorf("required flow %v denied", f)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tc.input)); !errors.Is(err, ErrSyntax) {
				t.Fatalf("got %v, want ErrSyntax", err)
			}
		})
	}
}

func TestParseCommentsAndBlanksIgnored(t *testing.T) {
	in := "# comment\n\nnodes 2 1\n# another\nlink 1 3\nlink 2 3\nsliders 0 0 10\n"
	p, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(p.Flows))
	}
}

func TestWriteDesign(t *testing.T) {
	p := parseExample(t)
	syn, err := core.NewSynthesizer(p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := syn.Solve()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteDesign(&sb, p, d); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"synthesized security design", "isolation patterns per destination host", "device placements"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if !strings.Contains(out, "host h1:") {
		t.Error("output should list hosts by name")
	}
}

func TestDeviceLabels(t *testing.T) {
	p := parseExample(t)
	syn, err := core.NewSynthesizer(p)
	if err != nil {
		t.Fatal(err)
	}
	// Force at least one placement by requiring isolation.
	_, d, err := syn.MaxIsolation(0, 30)
	if err != nil {
		t.Fatal(err)
	}
	labels := DeviceLabels(p, d)
	if d.DeviceCount() > 0 && len(labels) == 0 {
		t.Error("labels empty despite placements")
	}
	dot := p.Network.DOT(labels)
	if !strings.Contains(dot, "graph network") {
		t.Error("DOT output malformed")
	}
}

func TestParsedFlowsMatchAllPairs(t *testing.T) {
	p := parseExample(t)
	hosts := p.Network.Hosts()
	seen := map[usability.Flow]bool{}
	for _, f := range p.Flows {
		seen[f] = true
	}
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			if !seen[usability.Flow{Src: a, Dst: b, Svc: 1}] {
				t.Fatalf("missing flow %d->%d", a, b)
			}
		}
	}
}
