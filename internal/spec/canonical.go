package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"sort"
	"strconv"

	"configsynth/internal/core"
	"configsynth/internal/isolation"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// Canonical renders a deterministic normalized serialization of a
// synthesis problem. Two problems that denote the same synthesis input
// — regardless of the order their links, flows, requirements, or policy
// rules were declared in — produce byte-identical output, which makes
// its hash (Fingerprint) usable as a result-cache key: confserved serves
// a re-submitted or section-permuted problem from memory instead of the
// SAT core.
//
// The encoding covers everything that can influence a synthesis answer:
// nodes (IDs, kinds, names), links (as sorted endpoint pairs, not link
// IDs, which depend on declaration order), the catalog (patterns with
// devices, usability retention, and solved scores; devices with costs),
// flows with ranks and requirement flags, policy rules, thresholds, and
// the semantically relevant options with defaults applied. It excludes
// execution knobs that cannot change the answer in the exact regime
// (worker counts, solver diversification, self-check mode).
func Canonical(p *core.Problem) []byte {
	size := 1024 + 40*len(p.Flows) + 24*len(p.Preplaced)
	if p.Network != nil {
		size += 24*p.Network.NumNodes() + 16*p.Network.NumLinks()
	}
	w := canonWriter{b: make([]byte, 0, size)}
	w.problem(p)
	return w.b
}

// canonWriter writes the canonical form line by line; every line format
// is spelled once, here, for Canonical, Fingerprint and
// (*Spec).Fingerprint alike. The per-node, per-link, per-preplacement
// and per-flow lines — all but a few dozen bytes of a large problem —
// are appended with strconv; fmt formats only the handful of lines whose
// count does not grow with the network. With h nil the writer collects
// the whole form in b. With h set it hashes b whenever a line takes it
// past flushAt, so a fingerprint never holds the form whole.
type canonWriter struct {
	b []byte
	h hash.Hash
}

// flushAt is how much a hashing canonWriter buffers between writes to
// the hash.
const flushAt = 2 << 10

// newHasher starts a fingerprint: the format-version byte, then the
// canonical form as it is written.
func newHasher(version byte) canonWriter {
	h := sha256.New()
	h.Write([]byte{version})
	return canonWriter{b: make([]byte, 0, flushAt+512), h: h}
}

// sum hashes what is left in the buffer and returns the hex digest.
func (w *canonWriter) sum() string {
	w.h.Write(w.b)
	return hex.EncodeToString(w.h.Sum(nil))
}

// endLine ends the line being written.
func (w *canonWriter) endLine() {
	w.b = append(w.b, '\n')
	if w.h != nil && len(w.b) >= flushAt {
		w.h.Write(w.b)
		w.b = w.b[:0]
	}
}

// problem writes the canonical form of p.
func (w *canonWriter) problem(p *core.Problem) {
	w.head(p.Options.Normalized(), p.Thresholds)
	if p.Network != nil {
		// Node IDs are dense, so counting up is ascending ID order.
		for id := 0; id < p.Network.NumNodes(); id++ {
			n, _ := p.Network.Node(topology.NodeID(id))
			writeNode(w, n.ID, n.Kind, n.Name)
		}
		links := p.Network.Links()
		pairs := make([][2]topology.NodeID, 0, len(links))
		for _, l := range links {
			pairs = append(pairs, [2]topology.NodeID{l.A, l.B})
		}
		w.links(pairs)
	}

	if len(p.Preplaced) > 0 {
		// Preplacements change both feasibility (free pinned devices) and
		// the marginal-cost objective, so they are part of the fingerprint;
		// endpoint order within a preplacement is not semantic.
		pres := make([][3]int32, 0, len(p.Preplaced))
		for _, pp := range p.Preplaced {
			a, c := pp.A, pp.B
			if a > c {
				a, c = c, a
			}
			pres = append(pres, [3]int32{int32(a), int32(c), int32(pp.Dev)})
		}
		slices.SortFunc(pres, func(x, y [3]int32) int { return slices.Compare(x[:], y[:]) })
		for _, pr := range pres {
			w.b = appendInts(append(w.b, "preplace"...), int64(pr[0]), int64(pr[1]))
			w.b = strconv.AppendInt(append(w.b, " dev="...), int64(pr[2]), 10)
			w.endLine()
		}
	}

	if p.Catalog != nil {
		w.catalog(p.Catalog)
	}

	// The requirement flags are read in step with the sorted flows, off
	// the requirements' own sorted list.
	req := p.Requirements.Walk()
	for _, f := range usability.SortedFlows(p.Flows) {
		rank := 1
		if p.Ranks != nil {
			rank = p.Ranks.Rank(f)
		}
		w.flow(f, rank, req.Required(f))
	}

	if p.Policies != nil {
		// Policy rules are conjunctive, so declaration order is semantic
		// noise; sort their renderings.
		rules := make([]string, 0, p.Policies.Len())
		for _, r := range p.Policies.All() {
			rules = append(rules, fmt.Sprint(r))
		}
		sort.Strings(rules)
		for _, r := range rules {
			w.b = append(append(w.b, "policy "...), r...)
			w.endLine()
		}
	}
}

// head writes the format line, the options and the thresholds.
func (w *canonWriter) head(opt core.Options, th core.Thresholds) {
	w.b = append(w.b, "configsynth-canon/1\n"...)
	w.b = fmt.Appendf(w.b, "options tunnel=%d alpha=%d maxroutes=%d maxhops=%d noft=%t sbudget=%d pbudget=%d\n",
		opt.TunnelSlackHops, opt.AlphaPct, opt.Routes.MaxRoutes, opt.Routes.MaxHops,
		opt.DisableFlowTheory, opt.SolverBudget, opt.ProbeBudget)
	w.b = fmt.Appendf(w.b, "thresholds iso=%d usa=%d cost=%d",
		th.IsolationTenths, th.UsabilityTenths, th.CostBudget)
	w.endLine()
}

// writeNode writes one node line. The name is a string, or bytes a
// caller built in a scratch buffer to spare a string per node.
func writeNode[N string | []byte](w *canonWriter, id topology.NodeID, kind topology.NodeKind, name N) {
	w.b = appendInts(append(w.b, "node"...), int64(id))
	w.b = append(append(w.b, ' '), kind.String()...)
	w.b = append(append(w.b, ' '), name...)
	w.endLine()
}

// links writes the links as sorted endpoint pairs: LinkIDs depend on
// declaration order, which must not affect the fingerprint. It sorts
// pairs in place.
func (w *canonWriter) links(pairs [][2]topology.NodeID) {
	for i, pr := range pairs {
		if pr[0] > pr[1] {
			pairs[i] = [2]topology.NodeID{pr[1], pr[0]}
		}
	}
	slices.SortFunc(pairs, func(x, y [2]topology.NodeID) int { return slices.Compare(x[:], y[:]) })
	for _, pr := range pairs {
		w.b = appendInts(append(w.b, "link"...), int64(pr[0]), int64(pr[1]))
		w.endLine()
	}
}

// catalog writes the patterns, with their solved scores, then the
// devices.
func (w *canonWriter) catalog(cat *isolation.Catalog) {
	for _, pat := range cat.Patterns() {
		devs := make([]int, 0, len(pat.Devices))
		for _, d := range pat.Devices {
			devs = append(devs, int(d))
		}
		sort.Ints(devs)
		w.b = fmt.Appendf(w.b, "pattern %d %q devs=%v usability=%d score=%d",
			pat.ID, pat.Name, devs, pat.UsabilityPct, cat.Score(pat.ID))
		w.endLine()
	}
	for _, dev := range cat.Devices() {
		w.b = fmt.Appendf(w.b, "device %d %q cost=%d", dev.ID, dev.Name, dev.Cost)
		w.endLine()
	}
}

// flow writes one flow line. Callers write flows in (src, dst, svc)
// order. It is the line a large problem is made of, so its numbers are
// appended by appendDec and its common tail is one constant.
func (w *canonWriter) flow(f usability.Flow, rank int, required bool) {
	b := appendDec(append(w.b, "flow "...), int64(f.Src))
	b = appendDec(append(b, ' '), int64(f.Dst))
	b = appendDec(append(b, ' '), int64(f.Svc))
	switch {
	case rank == 1 && !required:
		b = append(b, " rank=1 require=false"...)
	case rank == 1:
		b = append(b, " rank=1 require=true"...)
	default:
		b = strconv.AppendBool(append(appendDec(append(b, " rank="...), int64(rank)), " require="...), required)
	}
	w.b = b
	w.endLine()
}

// appendDec appends v in decimal, as strconv.AppendInt(b, v, 10) does,
// writing a non-negative value's digits itself.
func appendDec(b []byte, v int64) []byte {
	if v < 0 {
		return strconv.AppendInt(b, v, 10)
	}
	var buf [20]byte
	i := len(buf)
	for v >= 10 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	i--
	buf[i] = byte('0' + v)
	return append(b, buf[i:]...)
}

// appendInts appends each value in decimal behind a space.
func appendInts(b []byte, vals ...int64) []byte {
	for _, v := range vals {
		b = strconv.AppendInt(append(b, ' '), v, 10)
	}
	return b
}

// Fingerprint is the fingerprint of the problem the spec denotes,
// Fingerprint(sp.Problem()), computed without building it: the same
// canonical lines, generated from the spec's counts and tables in the
// order Canonical sorts a built problem into, streamed into the hash.
func (sp *Spec) Fingerprint() string {
	w := newHasher(FingerprintVersion)
	w.head(core.Options{}.Normalized(), sp.thresholds)
	var name [24]byte
	for i := 1; i <= sp.hosts; i++ {
		writeNode(&w, nodeID(i), topology.Host, strconv.AppendInt(append(name[:0], 'h'), int64(i), 10))
	}
	for i := 1; i <= sp.routers; i++ {
		writeNode(&w, nodeID(sp.hosts+i), topology.Router, strconv.AppendInt(append(name[:0], 'r'), int64(i), 10))
	}
	pairs := make([][2]topology.NodeID, len(sp.links))
	for i, l := range sp.links {
		pairs[i] = [2]topology.NodeID{nodeID(l[0]), nodeID(l[1])}
	}
	w.links(pairs)
	w.catalog(sp.catalog)
	// Every ordered pair of distinct hosts, each service: AllPairsFlows
	// in sorted order. Parsed problems carry no ranks.
	for src := 1; src <= sp.hosts; src++ {
		for dst := 1; dst <= sp.hosts; dst++ {
			if src == dst {
				continue
			}
			for svc := 1; svc <= sp.services; svc++ {
				bit := sp.flowBit(src, dst, svc)
				f := usability.Flow{Src: nodeID(src), Dst: nodeID(dst), Svc: usability.Service(svc)}
				w.flow(f, 1, sp.required[bit/64]&(1<<(bit%64)) != 0)
			}
		}
	}
	return w.sum()
}

// FingerprintVersion identifies the canonical-encoding format. It is
// the first byte of the Fingerprint hash input, so any change to the
// canonical serialization (new fields, reordered sections, changed
// scales) must bump it: two builds at different versions then disagree
// on every fingerprint, which is exactly what keeps cluster peers built
// at different versions from exchanging stale cache entries or WAL
// replays keyed by an incompatible encoding. Peers additionally send
// the version on cluster RPC so a mismatch is an explicit rejection,
// not a silent universal cache miss. A change to what a fingerprint's
// problem means bumps it too: at 3, a host pair has one route set,
// searched from its smaller endpoint, so an answer proven under the
// directional route sets of 2 is a miss, never served.
const FingerprintVersion byte = 3

// Fingerprint hashes the canonical serialization of a problem, prefixed
// with the format-version byte, to a stable hex cache key.
func Fingerprint(p *core.Problem) string {
	return fingerprintAt(FingerprintVersion, p)
}

// fingerprintAt hashes a problem under an explicit format version; the
// version-bump test uses it to prove a bump changes every fingerprint.
func fingerprintAt(version byte, p *core.Problem) string {
	w := newHasher(version)
	w.problem(p)
	return w.sum()
}

// FamilyFingerprint hashes the problem with its thresholds zeroed: two
// problems share a family fingerprint exactly when they differ only in
// threshold values. What-if sessions key on it — a session's encoded
// workers can be re-solved under new threshold assumptions, but only
// for a problem whose every non-threshold part is unchanged.
func FamilyFingerprint(p *core.Problem) string {
	q := *p
	q.Thresholds = core.Thresholds{}
	return Fingerprint(&q)
}
