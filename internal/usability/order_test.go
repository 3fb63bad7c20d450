package usability

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"configsynth/internal/topology"
)

// TestSortedFlowsMatchesCompareFlows holds SortedFlows to
// slices.SortFunc(flows, CompareFlows) on random flows: narrow ranges
// (the packed-key sort), negative services, duplicates, and IDs at the
// int32 extremes (ranges too wide to pack, and wide but packable).
func TestSortedFlowsMatchesCompareFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func(vals []int32) int32 { return vals[rng.Intn(len(vals))] }
	extremes := []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	gens := map[string]func() Flow{
		"dense": func() Flow {
			return Flow{Src: topology.NodeID(rng.Intn(40)), Dst: topology.NodeID(rng.Intn(40)), Svc: Service(1 + rng.Intn(3))}
		},
		"negative services": func() Flow {
			return Flow{Src: topology.NodeID(rng.Intn(8)), Dst: topology.NodeID(rng.Intn(8)), Svc: Service(rng.Intn(9) - 4)}
		},
		"maximal IDs": func() Flow {
			return Flow{Src: topology.NodeID(pick(extremes)), Dst: topology.NodeID(pick(extremes)), Svc: Service(pick(extremes))}
		},
		"maximal services": func() Flow {
			return Flow{Src: topology.NodeID(rng.Intn(5)), Dst: math.MaxInt32 - topology.NodeID(rng.Intn(5)), Svc: Service(pick(extremes))}
		},
		"full range": func() Flow {
			return Flow{Src: topology.NodeID(rng.Uint32()), Dst: topology.NodeID(rng.Uint32()), Svc: Service(rng.Uint32())}
		},
	}
	for name, gen := range gens {
		for trial := 0; trial < 200; trial++ {
			flows := make([]Flow, rng.Intn(300))
			for i := range flows {
				if i > 0 && rng.Intn(4) == 0 {
					flows[i] = flows[rng.Intn(i)] // a duplicate
				} else {
					flows[i] = gen()
				}
			}
			in := slices.Clone(flows)
			want := slices.Clone(flows)
			slices.SortFunc(want, CompareFlows)
			got := SortedFlows(flows)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, trial %d: SortedFlows(%v)\n= %v\nwant %v", name, trial, in, got, want)
			}
			if !slices.Equal(flows, in) {
				t.Fatalf("%s, trial %d: SortedFlows reordered its input", name, trial)
			}
		}
	}
}

// TestSortedFlowsKeepsSortedInput: sorted input comes back as itself,
// not as a copy.
func TestSortedFlowsKeepsSortedInput(t *testing.T) {
	flows := []Flow{{Src: 1, Dst: 2, Svc: -3}, {Src: 1, Dst: 2, Svc: 3}, {Src: 2, Dst: 1, Svc: 1}}
	if got := SortedFlows(flows); &got[0] != &flows[0] {
		t.Error("SortedFlows copied input that was already in order")
	}
	if allocs := testing.AllocsPerRun(10, func() { SortedFlows(flows) }); allocs != 0 {
		t.Errorf("SortedFlows on sorted input allocates %.0f times, want 0", allocs)
	}
}
