package decomp

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/isolation"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// designDigest hashes a design's flow patterns, placements, cost and
// exactness in a canonical order, naming each placement's link by its
// endpoints on net, smaller first.
func designDigest(net *topology.Network, d *core.Design) string {
	h := sha256.New()
	flows := make([]usability.Flow, 0, len(d.FlowPatterns))
	for f := range d.FlowPatterns {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool {
		a, b := flows[i], flows[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Svc < b.Svc
	})
	for _, f := range flows {
		fmt.Fprintf(h, "f %d %d %d %d\n", f.Src, f.Dst, f.Svc, d.FlowPatterns[f])
	}
	type placed struct {
		a, b topology.NodeID
		devs []isolation.DeviceID
	}
	var ps []placed
	for id, devs := range d.Placements {
		l, _ := net.Link(id)
		ps = append(ps, placed{min(l.A, l.B), max(l.A, l.B), devs})
	}
	slices.SortFunc(ps, func(x, y placed) int { return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b)) })
	for _, p := range ps {
		fmt.Fprintf(h, "p %d-%d %v\n", p.a, p.b, p.devs)
	}
	fmt.Fprintf(h, "cost %d exact %t\n", d.Cost, d.Exact)
	return hex.EncodeToString(h.Sum(nil))
}

// rehome clones p with a host's access link moved to another edge
// router, the edit the benchmark's campus_batch workload submits.
func rehome(t *testing.T, p *core.Problem, host, from, to topology.NodeID) *core.Problem {
	t.Helper()
	old := p.Network
	net := topology.New()
	for id := 0; id < old.NumNodes(); id++ {
		n, _ := old.Node(topology.NodeID(id))
		if n.Kind == topology.Host {
			net.AddHost(n.Name)
		} else {
			net.AddRouter(n.Name)
		}
	}
	for _, l := range old.Links() {
		a, b := l.A, l.B
		if (a == host && b == from) || (b == host && a == from) {
			a, b = host, to
		}
		if _, err := net.Connect(a, b); err != nil {
			t.Fatal(err)
		}
	}
	q := *p
	q.Network = net
	return &q
}

// campusGolden is what the decomposing solver answered on the
// benchmark's campus (100 hosts, seed 100, sliders 3.0/4.0, budget
// 2000) at the commit before route enumeration was rebuilt: per solve
// the stitched design's digest, its cost, the devices the placement
// completion added, and every subproblem's key and cache fingerprint.
// Route order fixes the subnetworks' link numbering and through it the
// encodings, so all of it must survive the rebuild unchanged. The cache
// fingerprints are those of spec.FingerprintVersion 4: version 3's one
// route set per host pair left every design here as it was, and version
// 4 changed only how the hash is built. A design digest names placements
// by endpoints, so it does not depend on how the links are numbered.
var campusGolden = map[string]struct {
	design   string
	cost     int64
	repaired int
	regions  []string
}{
	"base": {
		design:   "8a175079f32b8b263b0ee97a1c573afa72e5f2210bf99e6447accf5d8e24592a",
		cost:     10,
		repaired: 0,
		regions: []string{
			"r0 a28c63e9d44990300ffd2e14b3d448774acd2484189a86ca1fd34336c00cc355",
			"r1 b85a273fd5d171e96f46afb14b8313ed9f6477460499a0d44a10fe819a5bd67c",
			"x0-1 f2fa35b37b40ea2bdbc6a502c049e1f8be22c571029fa77596971120227d97b9",
		},
	},
	"budget": {
		design:   "8a175079f32b8b263b0ee97a1c573afa72e5f2210bf99e6447accf5d8e24592a",
		cost:     10,
		repaired: 0,
		regions: []string{
			"r0 a28c63e9d44990300ffd2e14b3d448774acd2484189a86ca1fd34336c00cc355",
			"r1 b85a273fd5d171e96f46afb14b8313ed9f6477460499a0d44a10fe819a5bd67c",
			"x0-1 f2fa35b37b40ea2bdbc6a502c049e1f8be22c571029fa77596971120227d97b9",
		},
	},
	"rehome-h10": {
		design:   "0a87c313822ad4e3400c3a998724adcc5ed4e6ee6867899dfcc7ebc7731a1cbd",
		cost:     10,
		repaired: 0,
		regions: []string{
			"r0 4f5f79eeac82a11bf725ba6820b5f56a1045d3e43ce9c048f48005a336e23d7e",
			"r1 b85a273fd5d171e96f46afb14b8313ed9f6477460499a0d44a10fe819a5bd67c",
			"x0-1 43930eb681d790591a4ff5b8c048e384e0c2120a345beb08f14d60f09ad80693",
		},
	},
	"rehome-h64": {
		design:   "a0cecbb69a1ca85c39d3bb5dd786150083918d9940e5d22267232dbb2291c750",
		cost:     10,
		repaired: 0,
		regions: []string{
			"r0 a28c63e9d44990300ffd2e14b3d448774acd2484189a86ca1fd34336c00cc355",
			"r1 73f133b8ecbd219ea9b94ce9e0835711b6a8a5894e988248a7b5019e7dff1dc7",
			"x0-1 821c934e1c5430373a8346f06530a0c3e7ca042ebb655ade19cd8bd8caad8b9e",
		},
	},
}

func TestCampusAnswersMatchRecordedParent(t *testing.T) {
	base := campus(t, 100, 0, 100, core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: 2000})
	budget := *base
	budget.Thresholds.CostBudget = 2100
	solves := []struct {
		name string
		prob *core.Problem
		hits uint64 // region-cache hits expected on the shared solver
	}{
		{"base", base, 0},
		{"budget", &budget, 3},
		{"rehome-h10", rehome(t, base, 10, 6, 3), 1},
		{"rehome-h64", rehome(t, base, 64, 60, 57), 1},
	}
	s := New(Options{Workers: 4, VerifyStitch: true})
	for _, sv := range solves {
		res, err := s.Solve(context.Background(), sv.prob)
		if err != nil {
			t.Fatalf("%s: %v", sv.name, err)
		}
		if res.Unsat || res.Fallback {
			t.Fatalf("%s: unsat=%v fallback=%v", sv.name, res.Unsat, res.Fallback)
		}
		var regions []string
		for _, r := range res.Regions {
			if r.Escalated {
				t.Errorf("%s: region %s escalated", sv.name, r.Key)
			}
			regions = append(regions, r.Key+" "+r.Fingerprint)
		}
		want := campusGolden[sv.name]
		if got := designDigest(sv.prob.Network, res.Design); got != want.design {
			t.Errorf("%s: design digest %s, recorded %s", sv.name, got, want.design)
		}
		if res.Design.Cost != want.cost || res.Repaired != want.repaired {
			t.Errorf("%s: cost %d repaired %d, recorded %d and %d", sv.name, res.Design.Cost, res.Repaired, want.cost, want.repaired)
		}
		if !slices.Equal(regions, want.regions) {
			t.Errorf("%s: regions\n%v\nrecorded\n%v", sv.name, regions, want.regions)
		}
		if res.Hits != sv.hits {
			t.Errorf("%s: %d region-cache hits, want %d", sv.name, res.Hits, sv.hits)
		}
	}
}
