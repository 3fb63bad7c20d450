package decomp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// designDigest hashes a design's flow patterns, placements, cost and
// exactness in a canonical order.
func designDigest(d *core.Design) string {
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
	links := make([]topology.LinkID, 0, len(d.Placements))
	for l := range d.Placements {
		links = append(links, l)
	}
	slices.Sort(links)
	for _, l := range links {
		fmt.Fprintf(h, "p %d %v\n", l, d.Placements[l])
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
// encodings, so all of it must survive the rebuild unchanged.
var campusGolden = map[string]struct {
	design   string
	cost     int64
	repaired int
	regions  []string
}{
	"base": {
		design:   "771ed915d1af1b9cfa720533d5e61163b214a829ffa0ad4c00e508ac6de6c299",
		cost:     10,
		repaired: 0,
		regions: []string{
			"r0 91dcf3e37e37fbc98a3536b0fd5f0c3fe6e9dcf12c82882fd821b4ae0ae06376",
			"r1 b31c2a1485e7237d563cbe2fb594153bdaec5336e1480599fb4c0a1425f4de3f",
			"x0-1 46a49e3c44e30111d55916229ffcaf355c455e5f339623adf193f6e13f1f918e",
		},
	},
	"budget": {
		design:   "771ed915d1af1b9cfa720533d5e61163b214a829ffa0ad4c00e508ac6de6c299",
		cost:     10,
		repaired: 0,
		regions: []string{
			"r0 91dcf3e37e37fbc98a3536b0fd5f0c3fe6e9dcf12c82882fd821b4ae0ae06376",
			"r1 b31c2a1485e7237d563cbe2fb594153bdaec5336e1480599fb4c0a1425f4de3f",
			"x0-1 46a49e3c44e30111d55916229ffcaf355c455e5f339623adf193f6e13f1f918e",
		},
	},
	"rehome-h10": {
		design:   "39b0a79fc5c560a5b5121fb3c15823d4300ded6b643c33615f531c649cb2e536",
		cost:     10,
		repaired: 0,
		regions: []string{
			"r0 b05f8e33e06636ed0fb590a3ae61f4af051f4c83f2aafe5f6f52fa7d66f4dae2",
			"r1 b31c2a1485e7237d563cbe2fb594153bdaec5336e1480599fb4c0a1425f4de3f",
			"x0-1 587f6b1d7db1056409c0818700df1fda9bba2b85f82fce5af061b4a6da9dd60b",
		},
	},
	"rehome-h64": {
		design:   "99812d56d8b5aa14e920323f2d923b86de9efb0de8945eccbc2493a08e9fcf0b",
		cost:     10,
		repaired: 0,
		regions: []string{
			"r0 91dcf3e37e37fbc98a3536b0fd5f0c3fe6e9dcf12c82882fd821b4ae0ae06376",
			"r1 a9069ac20b3da6e574ab16b58db039a45a1463a3fa0f14d84cc0ff390938b274",
			"x0-1 07227fed4db32d67c3ff26fe25cda1361e7f2760c90d9877ab8c05d50216a945",
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
		if got := designDigest(res.Design); got != want.design {
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
