package spec

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/isolation"
	"configsynth/internal/netgen"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// referenceWriteDesign is WriteDesign as it stood before the one-pass
// rendering: per-destination maps of per-pattern source lists, a sort
// per list, and one fmt.Fprintf per line.
func referenceWriteDesign(w io.Writer, p *core.Problem, d *core.Design) error {
	nodeName := func(id topology.NodeID) string {
		if n, ok := p.Network.Node(id); ok {
			return n.Name
		}
		return fmt.Sprintf("n%d", id)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# synthesized security design\n")
	fmt.Fprintf(bw, "# isolation=%.2f usability=%.2f cost=$%dK devices=%d\n",
		d.Isolation, d.Usability, d.Cost, d.DeviceCount())

	fmt.Fprintf(bw, "\n## isolation patterns per destination host\n")
	type row struct {
		dst  topology.NodeID
		name string
	}
	byDst := make(map[topology.NodeID]map[isolation.PatternID][]string)
	var rows []row
	seen := map[topology.NodeID]bool{}
	for f, pid := range d.FlowPatterns {
		if byDst[f.Dst] == nil {
			byDst[f.Dst] = make(map[isolation.PatternID][]string)
		}
		srcName := nodeName(f.Src)
		byDst[f.Dst][pid] = append(byDst[f.Dst][pid], srcName)
		if !seen[f.Dst] {
			seen[f.Dst] = true
			rows = append(rows, row{f.Dst, nodeName(f.Dst)})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].dst < rows[j].dst })
	for _, r := range rows {
		fmt.Fprintf(bw, "host %s:\n", r.name)
		pids := make([]isolation.PatternID, 0, len(byDst[r.dst]))
		for pid := range byDst[r.dst] {
			pids = append(pids, pid)
		}
		sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
		for _, pid := range pids {
			srcs := byDst[r.dst][pid]
			sort.Strings(srcs)
			name := "no isolation"
			if pid != isolation.PatternNone {
				if pat, ok := p.Catalog.Pattern(pid); ok {
					name = pat.Name
				}
			}
			fmt.Fprintf(bw, "  %-32s from %s\n", name, strings.Join(srcs, ", "))
		}
	}

	fmt.Fprintf(bw, "\n## device placements\n")
	type placement struct {
		link topology.LinkID
		devs []isolation.DeviceID
	}
	var placements []placement
	for link, devs := range d.Placements {
		placements = append(placements, placement{link, devs})
	}
	sort.Slice(placements, func(i, j int) bool { return placements[i].link < placements[j].link })
	for _, pl := range placements {
		l, _ := p.Network.Link(pl.link)
		names := make([]string, len(pl.devs))
		for i, dev := range pl.devs {
			dd, _ := p.Catalog.Device(dev)
			names[i] = dd.Name
		}
		fmt.Fprintf(bw, "link %s -- %s: %s\n",
			nodeName(l.A), nodeName(l.B), strings.Join(names, ", "))
	}
	return bw.Flush()
}

// TestWriteDesignMatchesReference: the one-pass WriteDesign writes the
// reference's text byte for byte — on solved designs of the example and
// of netgen problems, on a design that isolates nothing, and on designs
// naming what the problem does not know: node ids outside the network
// (rendered n<id>), links, patterns and devices the catalog lacks, and
// pattern names the %-32s column cannot hold or counts in runes.
func TestWriteDesignMatchesReference(t *testing.T) {
	type instance struct {
		name string
		p    *core.Problem
		d    *core.Design
	}
	var cases []instance
	solve := func(name string, p *core.Problem, q core.Query) {
		t.Helper()
		syn, err := core.NewSynthesizer(p)
		if err != nil {
			t.Fatal(err)
		}
		d, err := syn.Run(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, instance{name, p, d})
	}

	ex := parseExample(t)
	solve("example", ex, core.Query{Thresholds: ex.Thresholds})
	paper := netgen.PaperExample()
	solve("paper example", paper, core.Query{Thresholds: paper.Thresholds})
	for seed := int64(1); seed <= 4; seed++ {
		p, err := netgen.Generate(netgen.Config{
			Hosts: 8 + 4*int(seed), Routers: 6, MaxServices: 3, CRFraction: 0.1, Seed: seed,
			Thresholds: core.Thresholds{IsolationTenths: 30, UsabilityTenths: 50, CostBudget: 200},
		})
		if err != nil {
			t.Fatal(err)
		}
		solve(fmt.Sprintf("netgen seed %d", seed), p, core.Query{Thresholds: p.Thresholds})
	}

	// No isolation anywhere and no device placed.
	open := &core.Design{FlowPatterns: map[usability.Flow]isolation.PatternID{}, Placements: map[topology.LinkID][]isolation.DeviceID{}}
	for _, f := range paper.Flows {
		open.FlowPatterns[f] = isolation.PatternNone
	}
	cases = append(cases, instance{"no isolation", paper, open})

	// What the problem does not know: nodes 90, 91 and -4, link 999
	// (drawn between node 0 and itself, as the zero Link), patterns 77
	// and -1, device 55.
	odd := &core.Design{
		FlowPatterns: map[usability.Flow]isolation.PatternID{
			{Src: 90, Dst: 1, Svc: 1}:  isolation.AccessDeny,
			{Src: 1, Dst: 91, Svc: 2}:  77,
			{Src: 91, Dst: 90, Svc: 1}: isolation.PatternNone,
			{Src: 0, Dst: 1, Svc: 1}:   isolation.AccessDeny,
			{Src: -4, Dst: 1, Svc: 1}:  -1,
			{Src: 2, Dst: -4, Svc: 1}:  isolation.TrustedComm,
			{Src: 91, Dst: -4, Svc: 1}: isolation.TrustedComm,
			{Src: 3, Dst: 1, Svc: 1}:   isolation.AccessDeny,
		},
		Placements: map[topology.LinkID][]isolation.DeviceID{
			999: {isolation.Firewall},
			0:   {55, isolation.IPSec},
			1:   nil,
		},
		Isolation: 1.005, Usability: -0.0, Cost: -3,
	}
	cases = append(cases, instance{"unknown ids", paper, odd})

	// Pattern names wider than the column, and one whose bytes outnumber
	// its runes.
	pats := isolation.DefaultPatterns()
	pats[0].Name = "Äccess Dény (ünïcode)"
	pats[1].Name = strings.Repeat("Trusted Communication ", 3)
	cat, err := isolation.NewCatalog(pats, isolation.DefaultDevices(), isolation.DefaultOrder())
	if err != nil {
		t.Fatal(err)
	}
	renamed := *paper
	renamed.Catalog = cat
	mixed := &core.Design{FlowPatterns: map[usability.Flow]isolation.PatternID{}, Placements: odd.Placements}
	for i, f := range paper.Flows {
		mixed.FlowPatterns[f] = isolation.PatternID(i % 4)
	}
	cases = append(cases, instance{"renamed patterns", &renamed, mixed})

	for _, c := range cases {
		var got, want strings.Builder
		if err := WriteDesign(&got, c.p, c.d); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := referenceWriteDesign(&want, c.p, c.d); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: WriteDesign differs from the reference\n got:\n%s\nwant:\n%s", c.name, got.String(), want.String())
		}
	}
}
