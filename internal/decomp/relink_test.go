package decomp

import (
	"context"
	"fmt"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/topology"
)

// TestStoredDesignFitsReorderedLinks: a warm solver that has stored a
// campus's decomposition answers the same campus with its links
// connected in reverse order (one key, and one LinkID numbering, as
// LinkIDs follow the link set) with a design that passes core.Verify on
// the reversed problem, as a fresh solver's does, and with the stored
// stitch's render memo. Campus 100/100 at 3.0/4.0/$2 000, then reversed
// at $2 001 (1 671 violations when LinkIDs followed declaration order
// and the stored design's were served as they were); without -short or
// -race, also the 40-host,
// 4-department campus at $800, then $801 (73), whose cold solve takes
// about 40 s under the race detector.
func TestStoredDesignFitsReorderedLinks(t *testing.T) {
	type campusCase struct {
		hosts, depts int
		seed, budget int64
	}
	cases := []campusCase{{100, 0, 100, 2000}}
	if !testing.Short() && !raceEnabled {
		cases = append(cases, campusCase{40, 4, 1, 800})
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("campus%d", c.hosts), func(t *testing.T) {
			p := campus(t, c.hosts, c.depts, c.seed, core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: c.budget})
			s := New(Options{})
			if res, err := s.Solve(context.Background(), p); err != nil || res.Design == nil {
				t.Fatalf("sorted campus: err %v, result %+v", err, res)
			}
			rev := reversedLinks(p)
			rev.Thresholds.CostBudget = c.budget + 1
			res, err := s.Solve(context.Background(), rev)
			if err != nil || res.Design == nil {
				t.Fatalf("reversed campus: err %v, result %+v", err, res)
			}
			if res.Misses != 0 {
				t.Fatalf("reversed campus missed %d regions, want its stored stitch", res.Misses)
			}
			if res.Rendered == nil {
				t.Error("the reversed campus, one link set and so one numbering, is served without the stored stitch's render memo")
			}
			vr, err := core.Verify(rev, res.Design)
			if err != nil {
				t.Fatal(err)
			}
			if !vr.OK() {
				t.Errorf("the warm solver's design has %d violations on the reversed campus, first %v", len(vr.Violations), vr.Violations[0])
			}
		})
	}
}

// reversedLinks is p with its links connected in reverse order, each
// with its endpoints swapped.
func reversedLinks(p *core.Problem) *core.Problem {
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
	q := *p
	q.Network = net
	return &q
}
