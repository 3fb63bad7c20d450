package spec

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"configsynth/internal/core"
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
	// The per-node, per-link, per-preplacement and per-flow lines — all
	// but a few dozen bytes of a large problem — are appended with
	// strconv into one buffer; fmt formats only the handful of lines
	// whose count does not grow with the network.
	size := 1024 + 40*len(p.Flows) + 24*len(p.Preplaced)
	if p.Network != nil {
		size += 24*p.Network.NumNodes() + 16*p.Network.NumLinks()
	}
	b := make([]byte, 0, size)
	b = append(b, "configsynth-canon/1\n"...)

	opt := p.Options.Normalized()
	b = fmt.Appendf(b, "options tunnel=%d alpha=%d maxroutes=%d maxhops=%d noft=%t sbudget=%d pbudget=%d\n",
		opt.TunnelSlackHops, opt.AlphaPct, opt.Routes.MaxRoutes, opt.Routes.MaxHops,
		opt.DisableFlowTheory, opt.SolverBudget, opt.ProbeBudget)

	th := p.Thresholds
	b = fmt.Appendf(b, "thresholds iso=%d usa=%d cost=%d\n",
		th.IsolationTenths, th.UsabilityTenths, th.CostBudget)

	if p.Network != nil {
		// Node IDs are dense, so counting up is ascending ID order.
		for id := 0; id < p.Network.NumNodes(); id++ {
			n, _ := p.Network.Node(topology.NodeID(id))
			b = appendInts(append(b, "node"...), int64(n.ID))
			b = append(append(b, ' '), n.Kind.String()...)
			b = append(append(append(b, ' '), n.Name...), '\n')
		}
		// Links are canonicalized as sorted endpoint pairs: LinkIDs depend
		// on declaration order, which must not affect the fingerprint.
		links := p.Network.Links()
		pairs := make([][2]topology.NodeID, 0, len(links))
		for _, l := range links {
			a, c := l.A, l.B
			if a > c {
				a, c = c, a
			}
			pairs = append(pairs, [2]topology.NodeID{a, c})
		}
		slices.SortFunc(pairs, func(x, y [2]topology.NodeID) int { return slices.Compare(x[:], y[:]) })
		for _, pr := range pairs {
			b = append(appendInts(append(b, "link"...), int64(pr[0]), int64(pr[1])), '\n')
		}
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
			b = appendInts(append(b, "preplace"...), int64(pr[0]), int64(pr[1]))
			b = append(strconv.AppendInt(append(b, " dev="...), int64(pr[2]), 10), '\n')
		}
	}

	if p.Catalog != nil {
		for _, pat := range p.Catalog.Patterns() {
			devs := make([]int, 0, len(pat.Devices))
			for _, d := range pat.Devices {
				devs = append(devs, int(d))
			}
			sort.Ints(devs)
			b = fmt.Appendf(b, "pattern %d %q devs=%v usability=%d score=%d\n",
				pat.ID, pat.Name, devs, pat.UsabilityPct, p.Catalog.Score(pat.ID))
		}
		for _, dev := range p.Catalog.Devices() {
			b = fmt.Appendf(b, "device %d %q cost=%d\n", dev.ID, dev.Name, dev.Cost)
		}
	}

	flows := slices.Clone(p.Flows)
	slices.SortFunc(flows, func(a, c usability.Flow) int {
		return cmp.Or(cmp.Compare(a.Src, c.Src), cmp.Compare(a.Dst, c.Dst), cmp.Compare(a.Svc, c.Svc))
	})
	for _, f := range flows {
		rank := 1
		if p.Ranks != nil {
			rank = p.Ranks.Rank(f)
		}
		req := p.Requirements != nil && p.Requirements.Required(f)
		b = appendInts(append(b, "flow"...), int64(f.Src), int64(f.Dst), int64(f.Svc))
		b = strconv.AppendInt(append(b, " rank="...), int64(rank), 10)
		b = append(strconv.AppendBool(append(b, " require="...), req), '\n')
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
			b = append(append(append(b, "policy "...), r...), '\n')
		}
	}
	return b
}

// appendInts appends each value in decimal behind a space.
func appendInts(b []byte, vals ...int64) []byte {
	for _, v := range vals {
		b = strconv.AppendInt(append(b, ' '), v, 10)
	}
	return b
}

// FingerprintVersion identifies the canonical-encoding format. It is
// the first byte of the Fingerprint hash input, so any change to the
// canonical serialization (new fields, reordered sections, changed
// scales) must bump it: two builds at different versions then disagree
// on every fingerprint, which is exactly what keeps cluster peers built
// at different versions from exchanging stale cache entries or WAL
// replays keyed by an incompatible encoding. Peers additionally send
// the version on cluster RPC so a mismatch is an explicit rejection,
// not a silent universal cache miss.
const FingerprintVersion byte = 2

// Fingerprint hashes the canonical serialization of a problem, prefixed
// with the format-version byte, to a stable hex cache key.
func Fingerprint(p *core.Problem) string {
	return fingerprintAt(FingerprintVersion, p)
}

// fingerprintAt hashes a problem under an explicit format version; the
// version-bump test uses it to prove a bump changes every fingerprint.
func fingerprintAt(version byte, p *core.Problem) string {
	h := sha256.New()
	h.Write([]byte{version})
	h.Write(Canonical(p))
	return hex.EncodeToString(h.Sum(nil))
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
