package spec

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"configsynth/internal/core"
	"configsynth/internal/isolation"
	"configsynth/internal/topology"
)

// WriteProblem renders a problem back into the input grammar Parse
// reads, so the service journal can persist programmatically-submitted
// problems and re-parse them during crash replay. The rendering is
// lossy by construction: the grammar cannot express policy rules
// (WriteProblem refuses those), custom flow ranks, non-default solver
// options, or a catalog that differs from the default one beyond cost
// overrides, and it omits `order` lines entirely (the catalog does not
// retain its raw order constraints, only the solved scores). Callers
// must therefore treat the output as a candidate and verify it with
// Fingerprint(Parse(WriteProblem(p))) == Fingerprint(p) before relying
// on it — Canonical embeds the solved pattern scores, node names, and
// normalized options, so any information the rendering dropped shows up
// as a fingerprint mismatch.
func WriteProblem(w io.Writer, p *core.Problem) error {
	if p.Network == nil || p.Catalog == nil {
		return fmt.Errorf("spec: problem has no network or catalog")
	}
	if p.Policies != nil && p.Policies.Len() > 0 {
		return fmt.Errorf("spec: the input grammar cannot express policy rules")
	}

	hosts := append([]topology.NodeID(nil), p.Network.Hosts()...)
	routers := append([]topology.NodeID(nil), p.Network.Routers()...)
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	sort.Slice(routers, func(i, j int) bool { return routers[i] < routers[j] })
	// Grammar numbering: hosts 1..H, routers H+1..H+R.
	num := make(map[topology.NodeID]int, len(hosts)+len(routers))
	for i, id := range hosts {
		num[id] = i + 1
	}
	for i, id := range routers {
		num[id] = len(hosts) + i + 1
	}

	bw := bufio.NewWriter(w)
	devices := p.Catalog.Devices()
	fmt.Fprintf(bw, "devices %d\n", len(devices))
	fmt.Fprintf(bw, "costs")
	for _, d := range devices {
		fmt.Fprintf(bw, " %d", d.Cost)
	}
	fmt.Fprintf(bw, "\n")
	fmt.Fprintf(bw, "nodes %d %d\n", len(hosts), len(routers))

	links := p.Network.Links()
	pairs := make([][2]int, 0, len(links))
	for _, l := range links {
		a, b := num[l.A], num[l.B]
		if a == 0 || b == 0 {
			return fmt.Errorf("spec: link %d-%d references an unknown node", l.A, l.B)
		}
		if a > b {
			a, b = b, a
		}
		pairs = append(pairs, [2]int{a, b})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, pr := range pairs {
		fmt.Fprintf(bw, "link %d %d\n", pr[0], pr[1])
	}

	services := 1
	for _, f := range p.Flows {
		if int(f.Svc) > services {
			services = int(f.Svc)
		}
	}
	fmt.Fprintf(bw, "services %d\n", services)

	if p.Requirements != nil {
		for _, f := range p.Requirements.All() {
			s, d := num[f.Src], num[f.Dst]
			if s == 0 || d == 0 {
				return fmt.Errorf("spec: requirement %d->%d references an unknown node", f.Src, f.Dst)
			}
			fmt.Fprintf(bw, "require %d %d %d\n", s, d, int(f.Svc))
		}
	}

	th := p.Thresholds
	fmt.Fprintf(bw, "sliders %g %g %d\n",
		float64(th.IsolationTenths)/10, float64(th.UsabilityTenths)/10, th.CostBudget)
	return bw.Flush()
}

// WriteDesign renders a synthesized design as the paper's output file:
// the isolation pattern per flow (Table V shape) followed by the device
// placements (Fig. 2(b) shape). The flows, sorted once by destination,
// pattern and source name, are the pattern table in reading order: a
// host's block and a pattern's line are runs of them.
func WriteDesign(w io.Writer, p *core.Problem, d *core.Design) error {
	type flow struct {
		src, dst topology.NodeID
		pid      isolation.PatternID
	}
	flows := make([]flow, 0, len(d.FlowPatterns))
	for f, pid := range d.FlowPatterns {
		flows = append(flows, flow{f.Src, f.Dst, pid})
	}

	// Slots number the nodes the flows name, in id order: the network's
	// nodes, and on either side of them the ids it lacks (rendered n<id>).
	n := p.Network.NumNodes()
	known := func(id topology.NodeID) bool { return id >= 0 && int(id) < n }
	var unknown []topology.NodeID
	pids := make([]isolation.PatternID, len(flows))
	for i, f := range flows {
		for _, id := range [2]topology.NodeID{f.src, f.dst} {
			if !known(id) {
				unknown = append(unknown, id)
			}
		}
		pids[i] = f.pid
	}
	slices.Sort(unknown)
	unknown = slices.Compact(unknown)
	below, _ := slices.BinarySearch(unknown, 0) // the negative ids
	slot := func(id topology.NodeID) int {
		if known(id) {
			return below + int(id)
		}
		at, _ := slices.BinarySearch(unknown, id)
		if at >= below {
			at += n
		}
		return at
	}
	// names holds each slot's name; byName orders the slots by it and
	// rank inverts that order. pids holds the distinct patterns in order.
	names := make([]string, n+len(unknown))
	byName := make([]int, len(names))
	for s := range names {
		id := topology.NodeID(s - below)
		switch {
		case s < below:
			id = unknown[s]
		case s >= below+n:
			id = unknown[s-n]
		}
		names[s], byName[s] = nodeName(p.Network, id), s
	}
	slices.SortFunc(byName, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	rank := make([]int, len(names))
	for r, s := range byName {
		rank[s] = r
	}
	slices.Sort(pids)
	pids = slices.Compact(pids)

	// A row is a flow's (pattern, source name) as one ordered key, and the
	// rows are bucketed by destination slot: a counting sort, then a sort
	// of each bucket.
	at := make([]int, len(names)+1)
	for _, f := range flows {
		at[slot(f.dst)+1]++
	}
	for s := range names {
		at[s+1] += at[s]
	}
	rows, next := make([]uint64, len(flows)), slices.Clone(at)
	for _, f := range flows {
		pid, _ := slices.BinarySearch(pids, f.pid)
		s := slot(f.dst)
		rows[next[s]] = uint64(pid)<<32 | uint64(rank[slot(f.src)])
		next[s]++
	}

	b := make([]byte, 0, 256+16*len(rows)+64*len(d.Placements))
	b = append(b, "# synthesized security design\n# isolation="...)
	b = strconv.AppendFloat(b, d.Isolation, 'f', 2, 64)
	b = append(b, " usability="...)
	b = strconv.AppendFloat(b, d.Usability, 'f', 2, 64)
	b = append(b, " cost=$"...)
	b = strconv.AppendInt(b, d.Cost, 10)
	b = append(b, "K devices="...)
	b = strconv.AppendInt(b, int64(d.DeviceCount()), 10)
	b = append(b, "\n\n## isolation patterns per destination host\n"...)
	for s := range names {
		host := rows[at[s]:at[s+1]]
		if len(host) == 0 {
			continue
		}
		slices.Sort(host)
		b = append(b, "host "...)
		b = append(b, names[s]...)
		b = append(b, ":\n"...)
		for i, r := range host {
			if i == 0 || r>>32 != host[i-1]>>32 {
				name := patternName(p.Catalog, pids[r>>32])
				b = append(b, "  "...)
				b = append(b, name...)
				for n := utf8.RuneCountInString(name); n < 32; n++ { // fmt's %-32s
					b = append(b, ' ')
				}
				b = append(b, " from "...)
			} else {
				b = append(b, ", "...)
			}
			b = append(b, names[byName[uint32(r)]]...)
			if i+1 == len(host) || host[i+1]>>32 != r>>32 {
				b = append(b, '\n')
			}
		}
	}

	b = append(b, "\n## device placements\n"...)
	links := make([]topology.LinkID, 0, len(d.Placements))
	for link := range d.Placements {
		links = append(links, link)
	}
	slices.Sort(links)
	for _, link := range links {
		l, _ := p.Network.Link(link)
		b = append(b, "link "...)
		b = append(b, nodeName(p.Network, l.A)...)
		b = append(b, " -- "...)
		b = append(b, nodeName(p.Network, l.B)...)
		b = append(b, ": "...)
		for i, dev := range d.Placements[link] {
			if i > 0 {
				b = append(b, ", "...)
			}
			dd, _ := p.Catalog.Device(dev)
			b = append(b, dd.Name...)
		}
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}

// patternName is a pattern's name in the design text; a pattern the
// catalog does not know reads as no isolation.
func patternName(cat *isolation.Catalog, pid isolation.PatternID) string {
	if pid != isolation.PatternNone {
		if pat, ok := cat.Pattern(pid); ok {
			return pat.Name
		}
	}
	return "no isolation"
}

func nodeName(net *topology.Network, id topology.NodeID) string {
	if n, ok := net.Node(id); ok {
		return n.Name
	}
	return "n" + strconv.Itoa(int(id))
}

// DeviceLabels builds link labels for topology.DOT from a design.
func DeviceLabels(p *core.Problem, d *core.Design) map[topology.LinkID]string {
	labels := make(map[topology.LinkID]string, len(d.Placements))
	for link, devs := range d.Placements {
		names := make([]string, len(devs))
		for i, dev := range devs {
			dd, _ := p.Catalog.Device(dev)
			names[i] = dd.Name
		}
		labels[link] = strings.Join(names, ",")
	}
	return labels
}
