// Package spec parses ConfigSynth input files and renders synthesis
// results. The input format mirrors the paper's Table IV: sections for
// security devices, isolation partial orders, device costs, topology
// size, links, connectivity requirements, and slider values, with
// '#'-prefixed comment lines.
//
// Grammar (one directive per line, in any order; blank lines and
// #-comments ignored; devices, costs, nodes, services and sliders at most
// once each, so that no file's meaning depends on the order of its lines):
//
//	devices      <n>                      number of device types in use
//	order        <a> <b> <rel>            rel: 1 '=', 2 '>', 3 '>='  (repeatable)
//	costs        <c1> <c2> ... <cn>       per-device costs in $K
//	nodes        <hosts> <routers>
//	link         <nodeA> <nodeB>          node numbering: hosts 1..H, routers H+1..H+R (repeatable)
//	services     <count>                  services per host pair (flows are all-pairs)
//	require      <src> <dst> [svc]        connectivity requirement (repeatable)
//	sliders      <isolation> <usability> <cost$K>   isolation/usability on 0–10, decimals allowed
//
// Reading a file has two steps. Scan checks it and keeps what it says, a
// Spec; the Spec's Fingerprint hashes the problem the file denotes
// without building it, and its Problem builds it. Parse is the two steps
// in one.
package spec

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"configsynth/internal/core"
	"configsynth/internal/isolation"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// ErrSyntax reports a malformed input file.
var ErrSyntax = errors.New("spec: syntax error")

// Parse reads a problem description: Scan, then Problem.
func Parse(r io.Reader) (*core.Problem, error) {
	text, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	sp, err := Scan(string(text))
	if err != nil {
		return nil, err
	}
	return sp.Problem(), nil
}

// Spec is an input file Scan accepted: what the file says, before the
// problem it denotes is built. It is never modified after Scan, so any
// number of goroutines may call its methods.
type Spec struct {
	catalog        *isolation.Catalog
	hosts, routers int
	services       int
	// links and requires are in declaration order and in the grammar's
	// numbering (see nodeID).
	links    [][2]int
	requires [][3]int // src, dst, svc
	// required holds the requirement set, one bit per flow at flowBit.
	required   []uint64
	thresholds core.Thresholds
}

// maxLine is the longest line Scan reads: bufio.Scanner's limit, which
// bounded the line-at-a-time parser Scan replaced.
const maxLine = bufio.MaxScanTokenSize - 1

// Scan checks an input file in one pass over its lines and returns what
// it says. Besides the grammar, it makes the two checks of
// core.Problem.Validate that a file in the grammar can fail: fewer than
// two hosts leave no flow (core.ErrNoFlows), and a requirement may not
// name one host as both ends. The problem a Spec builds therefore always
// validates, and a fingerprint is only taken of input that passed every
// check.
func Scan(text string) (*Spec, error) {
	sp := &Spec{services: 1}
	var (
		nDevices int
		orders   []isolation.OrderConstraint
		costs    []int64
		sliders  [3]float64
		linkSeen = map[[2]int]bool{}
		// firstAt holds the line each once-only directive was given on.
		firstAt = make(map[string]int, 5)
		fields  []string
	)
	for lineNo := 1; text != ""; lineNo++ {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		if len(line) > maxLine {
			return nil, bufio.ErrTooLong
		}
		fields = appendFields(fields[:0], line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		key, args := fields[0], fields[1:]
		fail := func(msg string) error {
			return fmt.Errorf("%w: line %d: %s", ErrSyntax, lineNo, msg)
		}
		switch key {
		case "devices", "costs", "nodes", "services", "sliders":
			if at, ok := firstAt[key]; ok {
				return nil, fail(fmt.Sprintf("%s already given on line %d", key, at))
			}
			firstAt[key] = lineNo
		}
		switch key {
		case "devices":
			if len(args) != 1 {
				return nil, fail("devices expects one integer")
			}
			var err error
			nDevices, err = strconv.Atoi(args[0])
			if err != nil || nDevices < 0 {
				return nil, fail("devices must be a non-negative integer")
			}
		case "order":
			if len(args) != 3 {
				return nil, fail("order expects <a> <b> <rel>")
			}
			a, err1 := strconv.Atoi(args[0])
			b, err2 := strconv.Atoi(args[1])
			rel, err3 := strconv.Atoi(args[2])
			if err1 != nil || err2 != nil || err3 != nil || rel < 1 || rel > 3 {
				return nil, fail("order arguments must be integers with rel in 1..3")
			}
			orders = append(orders, isolation.OrderConstraint{
				A:   isolation.PatternID(a),
				B:   isolation.PatternID(b),
				Rel: isolation.Relation(rel),
			})
		case "costs":
			for _, a := range args {
				c, err := strconv.ParseInt(a, 10, 64)
				if err != nil || c < 0 {
					return nil, fail("costs must be non-negative integers")
				}
				costs = append(costs, c)
			}
		case "nodes":
			if len(args) != 2 {
				return nil, fail("nodes expects <hosts> <routers>")
			}
			var err1, err2 error
			sp.hosts, err1 = strconv.Atoi(args[0])
			sp.routers, err2 = strconv.Atoi(args[1])
			if err1 != nil || err2 != nil || sp.hosts <= 0 || sp.routers < 0 {
				return nil, fail("nodes counts must be positive integers")
			}
		case "link":
			if len(args) != 2 {
				return nil, fail("link expects <a> <b>")
			}
			a, err1 := strconv.Atoi(args[0])
			b, err2 := strconv.Atoi(args[1])
			if err1 != nil || err2 != nil {
				return nil, fail("link endpoints must be integers")
			}
			if a == b {
				return nil, fail("link endpoints must differ")
			}
			pair := [2]int{min(a, b), max(a, b)}
			if linkSeen[pair] {
				return nil, fail(fmt.Sprintf("duplicate link %d %d", a, b))
			}
			linkSeen[pair] = true
			sp.links = append(sp.links, [2]int{a, b})
		case "services":
			if len(args) != 1 {
				return nil, fail("services expects one integer")
			}
			var err error
			sp.services, err = strconv.Atoi(args[0])
			if err != nil || sp.services <= 0 {
				return nil, fail("services must be a positive integer")
			}
		case "require":
			if len(args) != 2 && len(args) != 3 {
				return nil, fail("require expects <src> <dst> [svc]")
			}
			src, err1 := strconv.Atoi(args[0])
			dst, err2 := strconv.Atoi(args[1])
			svc := 1
			var err3 error
			if len(args) == 3 {
				svc, err3 = strconv.Atoi(args[2])
			}
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fail("require arguments must be integers")
			}
			sp.requires = append(sp.requires, [3]int{src, dst, svc})
		case "sliders":
			if len(args) != 3 {
				return nil, fail("sliders expects <isolation> <usability> <cost>")
			}
			for i, a := range args {
				v, err := strconv.ParseFloat(a, 64)
				if err != nil || v < 0 {
					return nil, fail("slider values must be non-negative numbers")
				}
				sliders[i] = v
			}
		default:
			return nil, fail(fmt.Sprintf("unknown directive %q", key))
		}
	}
	if _, ok := firstAt["nodes"]; !ok {
		return nil, fmt.Errorf("%w: missing nodes directive", ErrSyntax)
	}
	if _, ok := firstAt["sliders"]; !ok {
		return nil, fmt.Errorf("%w: missing sliders directive", ErrSyntax)
	}

	var err error
	if sp.catalog, err = buildCatalog(nDevices, costs, orders); err != nil {
		return nil, err
	}
	for _, l := range sp.links {
		if n := sp.hosts + sp.routers; l[0] < 1 || l[0] > n || l[1] < 1 || l[1] > n {
			return nil, fmt.Errorf("%w: link %d-%d out of range", ErrSyntax, l[0], l[1])
		}
	}
	for _, r := range sp.requires {
		if r[0] < 1 || r[0] > sp.hosts || r[1] < 1 || r[1] > sp.hosts {
			return nil, fmt.Errorf("%w: requirement %d->%d out of host range", ErrSyntax, r[0], r[1])
		}
		if r[2] < 1 || r[2] > sp.services {
			return nil, fmt.Errorf("%w: requirement %d->%d names service %d (services %d)",
				ErrSyntax, r[0], r[1], r[2], sp.services)
		}
	}

	// What Validate would refuse in the built problem, in its order.
	if sp.hosts < 2 {
		return nil, fmt.Errorf("%w: %w: nodes declares %d host, and a flow needs two", ErrSyntax, core.ErrNoFlows, sp.hosts)
	}
	sp.required = make([]uint64, (sp.hosts*sp.hosts*sp.services+63)/64)
	for _, r := range sp.requires {
		if r[0] == r[1] {
			return nil, fmt.Errorf("%w: requirement %d->%d names one host as both ends", ErrSyntax, r[0], r[1])
		}
		bit := sp.flowBit(r[0], r[1], r[2])
		sp.required[bit/64] |= 1 << (bit % 64)
	}

	sp.thresholds = core.Thresholds{
		IsolationTenths: int(math.Round(sliders[0] * 10)),
		UsabilityTenths: int(math.Round(sliders[1] * 10)),
		CostBudget:      int64(math.Round(sliders[2])),
	}
	return sp, nil
}

// appendFields appends the white-space separated fields of line to dst,
// exactly as strings.Fields splits them, without allocating a slice per
// line when the line is ASCII.
func appendFields(dst []string, line string) []string {
	start := -1
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c >= utf8.RuneSelf:
			return append(dst, strings.Fields(line)...)
		case c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r':
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// nodeID maps the grammar's node numbering (hosts 1..H, routers
// H+1..H+R) to the network's, which counts from 0 in insertion order
// and Problem inserts in grammar order.
func nodeID(n int) topology.NodeID { return topology.NodeID(n - 1) }

// flowBit is the position of flow src->dst of service svc (grammar
// numbering) in the required bitset: (src, dst, svc) order, which is the
// order Canonical lists flows in.
func (sp *Spec) flowBit(src, dst, svc int) int {
	return ((src-1)*sp.hosts+dst-1)*sp.services + svc - 1
}

// Problem builds the problem the spec denotes, a new one on every call.
// The problems of one Spec share its catalog, which solvers only read.
func (sp *Spec) Problem() *core.Problem {
	net := topology.New()
	for i := 1; i <= sp.hosts; i++ {
		net.AddHost("h" + strconv.Itoa(i))
	}
	for i := 1; i <= sp.routers; i++ {
		net.AddRouter("r" + strconv.Itoa(i))
	}
	for _, l := range sp.links {
		if _, err := net.Connect(nodeID(l[0]), nodeID(l[1])); err != nil {
			// Scan refuses links out of range, to self and repeated.
			panic(fmt.Sprintf("spec: a scanned link does not connect: %v", err))
		}
	}

	svcIDs := make([]usability.Service, sp.services)
	for i := range svcIDs {
		svcIDs[i] = usability.Service(i + 1)
	}
	reqs := usability.NewRequirements()
	for _, r := range sp.requires {
		reqs.Require(usability.Flow{Src: nodeID(r[0]), Dst: nodeID(r[1]), Svc: usability.Service(r[2])})
	}
	return &core.Problem{
		Network:      net,
		Catalog:      sp.catalog,
		Flows:        core.AllPairsFlows(net, svcIDs),
		Requirements: reqs,
		Thresholds:   sp.thresholds,
	}
}

// buildCatalog is the default catalog restricted to nDevices device
// types, with cost overrides and the given partial order (falling back to
// the paper's defaults when none is given).
func buildCatalog(nDevices int, costs []int64, orders []isolation.OrderConstraint) (*isolation.Catalog, error) {
	patterns := isolation.DefaultPatterns()
	devices := isolation.DefaultDevices()
	if nDevices > 0 && nDevices < len(devices) {
		devices = devices[:nDevices]
		kept := make(map[isolation.DeviceID]bool, nDevices)
		for _, d := range devices {
			kept[d.ID] = true
		}
		var ps []isolation.Pattern
		for _, p := range patterns {
			ok := true
			for _, d := range p.Devices {
				if !kept[d] {
					ok = false
				}
			}
			if ok {
				ps = append(ps, p)
			}
		}
		patterns = ps
	}
	for i, c := range costs {
		if i < len(devices) {
			devices[i].Cost = c
		}
	}
	if len(orders) == 0 {
		// The paper's default partial order, restricted to the catalog.
		orders = restrictOrder(isolation.DefaultOrder(), patterns)
	} else {
		// User-given orders must name catalog patterns: an order on a
		// pattern dropped by the devices restriction (or never defined) is
		// a spec error, not something to silently ignore.
		known := make(map[isolation.PatternID]bool, len(patterns))
		for _, p := range patterns {
			known[p.ID] = true
		}
		for _, o := range orders {
			if !known[o.A] || !known[o.B] {
				return nil, fmt.Errorf("%w: order %d %d references a pattern outside the catalog (devices %d)",
					ErrSyntax, o.A, o.B, nDevices)
			}
		}
	}
	catalog, err := isolation.NewCatalog(patterns, devices, restrictOrder(orders, patterns))
	if err != nil {
		return nil, fmt.Errorf("spec: catalog: %w", err)
	}
	return catalog, nil
}

// restrictOrder drops order constraints that mention patterns outside the
// catalog.
func restrictOrder(orders []isolation.OrderConstraint, patterns []isolation.Pattern) []isolation.OrderConstraint {
	known := make(map[isolation.PatternID]bool, len(patterns))
	for _, p := range patterns {
		known[p.ID] = true
	}
	var out []isolation.OrderConstraint
	for _, o := range orders {
		if known[o.A] && known[o.B] {
			out = append(out, o)
		}
	}
	return out
}
