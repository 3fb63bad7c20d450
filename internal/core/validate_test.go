package core

import (
	"math"
	"testing"

	"configsynth/internal/isolation"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// TestValidateNamesTheSameError pins Validate's verdicts, message for
// message, to what the map-based check it replaced reported: one case
// per error, and cases where two errors compete for first place. tinyNet
// with its third host numbers h1 0, h2 1, routers 2-5 and h3 6.
func TestValidateNamesTheSameError(t *testing.T) {
	net, _ := tinyNet(t, true)
	type f = usability.Flow
	fl := func(src, dst topology.NodeID, svc usability.Service) f {
		return f{Src: src, Dst: dst, Svc: svc}
	}
	reqs := func(flows ...f) *usability.Requirements {
		r := usability.NewRequirements()
		for _, fl := range flows {
			r.Require(fl)
		}
		return r
	}
	cases := []struct {
		name  string
		flows []f
		reqs  *usability.Requirements
		pre   []Preplacement
		want  string // "" = valid
	}{
		{name: "valid, unsorted, with requirements",
			flows: []f{fl(6, 0, 1), fl(0, 1, 1), fl(1, 0, 2), fl(0, 6, -3)},
			reqs:  reqs(fl(0, 6, -3), fl(1, 0, 2))},
		{name: "unknown host", flows: []f{fl(0, 1, 1), fl(0, 99, 1)},
			want: "core: flow references an invalid host: g1(0->99)"},
		{name: "negative host", flows: []f{fl(-1, 1, 1)},
			want: "core: flow references an invalid host: g1(-1->1)"},
		{name: "router endpoint", flows: []f{fl(0, 1, 1), fl(2, 0, 1)},
			want: "core: flow references an invalid host: g1(2->0)"},
		{name: "src == dst", flows: []f{fl(1, 1, 2)},
			want: "core: flow references an invalid host: g2(1->1)"},
		{name: "duplicate flow", flows: []f{fl(0, 1, 1), fl(1, 0, 1), fl(0, 1, 1)},
			want: "core: duplicate flow g1(0->1)"},
		{name: "duplicate before a bad flow", flows: []f{fl(1, 0, 1), fl(1, 0, 1), fl(0, 0, 1)},
			want: "core: duplicate flow g1(1->0)"},
		{name: "bad flow before a duplicate", flows: []f{fl(1, 0, 1), fl(0, 0, 1), fl(1, 0, 1)},
			want: "core: flow references an invalid host: g1(0->0)"},
		{name: "the earlier second occurrence", flows: []f{fl(0, 1, 2), fl(1, 0, 1), fl(1, 0, 1), fl(0, 1, 2)},
			want: "core: duplicate flow g1(1->0)"},
		{name: "duplicate over the widest services",
			flows: []f{fl(0, 1, math.MinInt32), fl(0, 1, math.MaxInt32), fl(0, 1, math.MinInt32)},
			want:  "core: duplicate flow g-2147483648(0->1)"},
		{name: "valid over the widest services",
			flows: []f{fl(0, 1, math.MaxInt32), fl(0, 1, math.MinInt32), fl(6, 0, 0)},
			reqs:  reqs(fl(0, 1, math.MinInt32))},
		{name: "requirement outside the widest services",
			flows: []f{fl(0, 1, math.MaxInt32), fl(0, 1, math.MinInt32)},
			reqs:  reqs(fl(0, 1, math.MaxInt32), fl(0, 1, 0)),
			want:  "core: connectivity requirement g0(0->1) is not among the flows"},
		{name: "requirement not among the flows", flows: []f{fl(0, 1, 1), fl(1, 0, 1)},
			reqs: reqs(fl(1, 0, 7), fl(0, 1, 9), fl(1, 0, 1)),
			want: "core: connectivity requirement g9(0->1) is not among the flows"},
		{name: "requirement on a host outside the network", flows: []f{fl(0, 1, 1)},
			reqs: reqs(fl(0, 1, 1), fl(0, 42, 1)),
			want: "core: connectivity requirement g1(0->42) is not among the flows"},
		{name: "duplicate before a requirement", flows: []f{fl(0, 1, 1), fl(0, 1, 1)},
			reqs: reqs(fl(0, 1, 5)),
			want: "core: duplicate flow g1(0->1)"},
		{name: "bad preplacement link", flows: []f{fl(0, 1, 1)},
			pre:  []Preplacement{{A: 0, B: 1, Dev: isolation.Firewall}},
			want: "core: preplacement on non-existent link 0-1"},
		{name: "bad preplacement device", flows: []f{fl(0, 1, 1)},
			pre:  []Preplacement{{A: 0, B: 2, Dev: 99}},
			want: "core: preplacement on link 0-2 names unknown device 99"},
		{name: "requirement before a preplacement", flows: []f{fl(0, 1, 1)},
			reqs: reqs(fl(1, 0, 1)),
			pre:  []Preplacement{{A: 0, B: 1, Dev: 99}},
			want: "core: connectivity requirement g1(1->0) is not among the flows"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Problem{Network: net, Catalog: isolation.DefaultCatalog(), Flows: tc.flows, Requirements: tc.reqs, Preplaced: tc.pre}
			err := p.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Validate = %v, want nil", err)
			case tc.want != "" && (err == nil || err.Error() != tc.want):
				t.Fatalf("Validate = %v, want %q", err, tc.want)
			}
		})
	}
}
