package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/isolation"
	"configsynth/internal/netgen"
	"configsynth/internal/policy"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// referenceCanonical is Canonical as it stood when every line went
// through fmt.Fprintf into a strings.Builder: the byte-for-byte oracle
// of the strconv version.
func referenceCanonical(p *core.Problem) []byte {
	var b strings.Builder
	b.WriteString("configsynth-canon/1\n")

	opt := p.Options.Normalized()
	fmt.Fprintf(&b, "options tunnel=%d alpha=%d maxroutes=%d maxhops=%d noft=%t sbudget=%d pbudget=%d\n",
		opt.TunnelSlackHops, opt.AlphaPct, opt.Routes.MaxRoutes, opt.Routes.MaxHops,
		opt.DisableFlowTheory, opt.SolverBudget, opt.ProbeBudget)

	th := p.Thresholds
	fmt.Fprintf(&b, "thresholds iso=%d usa=%d cost=%d\n",
		th.IsolationTenths, th.UsabilityTenths, th.CostBudget)

	if p.Network != nil {
		nodes := append(p.Network.Hosts(), p.Network.Routers()...)
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		for _, id := range nodes {
			n, _ := p.Network.Node(id)
			fmt.Fprintf(&b, "node %d %s %s\n", n.ID, n.Kind, n.Name)
		}
		links := p.Network.Links()
		pairs := make([][2]topology.NodeID, 0, len(links))
		for _, l := range links {
			a, c := l.A, l.B
			if a > c {
				a, c = c, a
			}
			pairs = append(pairs, [2]topology.NodeID{a, c})
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		for _, pr := range pairs {
			fmt.Fprintf(&b, "link %d %d\n", pr[0], pr[1])
		}
	}

	if len(p.Preplaced) > 0 {
		pres := make([][3]int32, 0, len(p.Preplaced))
		for _, pp := range p.Preplaced {
			a, c := pp.A, pp.B
			if a > c {
				a, c = c, a
			}
			pres = append(pres, [3]int32{int32(a), int32(c), int32(pp.Dev)})
		}
		sort.Slice(pres, func(i, j int) bool {
			if pres[i][0] != pres[j][0] {
				return pres[i][0] < pres[j][0]
			}
			if pres[i][1] != pres[j][1] {
				return pres[i][1] < pres[j][1]
			}
			return pres[i][2] < pres[j][2]
		})
		for _, pr := range pres {
			fmt.Fprintf(&b, "preplace %d %d dev=%d\n", pr[0], pr[1], pr[2])
		}
	}

	if p.Catalog != nil {
		for _, pat := range p.Catalog.Patterns() {
			devs := make([]int, 0, len(pat.Devices))
			for _, d := range pat.Devices {
				devs = append(devs, int(d))
			}
			sort.Ints(devs)
			fmt.Fprintf(&b, "pattern %d %q devs=%v usability=%d score=%d\n",
				pat.ID, pat.Name, devs, pat.UsabilityPct, p.Catalog.Score(pat.ID))
		}
		for _, dev := range p.Catalog.Devices() {
			fmt.Fprintf(&b, "device %d %q cost=%d\n", dev.ID, dev.Name, dev.Cost)
		}
	}

	flows := append([]usability.Flow(nil), p.Flows...)
	sort.Slice(flows, func(i, j int) bool {
		a, c := flows[i], flows[j]
		if a.Src != c.Src {
			return a.Src < c.Src
		}
		if a.Dst != c.Dst {
			return a.Dst < c.Dst
		}
		return a.Svc < c.Svc
	})
	for _, f := range flows {
		rank := 1
		if p.Ranks != nil {
			rank = p.Ranks.Rank(f)
		}
		req := p.Requirements != nil && p.Requirements.Required(f)
		fmt.Fprintf(&b, "flow %d %d %d rank=%d require=%t\n", f.Src, f.Dst, f.Svc, rank, req)
	}

	if p.Policies != nil {
		rules := make([]string, 0, p.Policies.Len())
		for _, r := range p.Policies.All() {
			rules = append(rules, fmt.Sprint(r))
		}
		sort.Strings(rules)
		for _, r := range rules {
			fmt.Fprintf(&b, "policy %s\n", r)
		}
	}
	return []byte(b.String())
}

// goldenProblems are the problems whose canonical bytes and fingerprints
// are pinned: the paper example, the parsed grammar example, generated
// networks at the benchmark's cold_solve sizes, the benchmark's campus,
// and a decorated paper example that reaches the preplacement, rank,
// policy and non-default-option lines.
func goldenProblems(t testing.TB) map[string]*core.Problem {
	t.Helper()
	out := map[string]*core.Problem{"paper": netgen.PaperExample()}
	parsed, err := Parse(strings.NewReader(exampleInput))
	if err != nil {
		t.Fatal(err)
	}
	out["example-spec"] = parsed
	for i, size := range [][3]int{{24, 6, 1}, {46, 10, 3}, {60, 10, 2}} {
		p, err := netgen.Generate(netgen.Config{
			Hosts: size[0], Routers: size[1], MaxServices: size[2], CRFraction: 0.1, Seed: int64(1001 + i),
			Thresholds: core.Thresholds{IsolationTenths: 30, UsabilityTenths: 50, CostBudget: int64(4 * size[0])},
		})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("grammar-%dx%d", size[0], size[1])] = p
	}
	campus, err := netgen.Campus(netgen.CampusConfig{
		Hosts: 100, Seed: 100,
		Thresholds: core.Thresholds{IsolationTenths: 30, UsabilityTenths: 40, CostBudget: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	out["campus-100-100"] = campus

	d := netgen.PaperExample()
	links := d.Network.Links()
	d.Preplaced = []core.Preplacement{
		{A: links[3].B, B: links[3].A, Dev: isolation.IPSec},
		{A: links[0].A, B: links[0].B, Dev: isolation.Firewall},
		{A: links[3].A, B: links[3].B, Dev: isolation.Firewall},
	}
	d.Ranks = usability.NewRanks()
	d.Ranks.SetFlowRank(d.Flows[2], 3)
	d.Ranks.SetServiceRank(d.Flows[0].Svc, 2)
	d.Policies = policy.NewSet()
	d.Policies.Add(
		policy.PinFlow{Flow: d.Flows[5], Pattern: isolation.TrustedComm},
		policy.ForbidPattern{Svc: policy.AnyService, Pattern: isolation.ProxyForwarding},
	)
	d.Options.Routes = topology.RouteOptions{MaxRoutes: 3, MaxHops: 9}
	d.Options.TunnelSlackHops = 3
	d.Options.DisableFlowTheory = true
	d.Options.SolverBudget = 12345
	out["paper-decorated"] = d
	return out
}

// goldenFingerprints are Fingerprint and FamilyFingerprint of the golden
// problems: the fmt-based Canonical's bytes (the reference above) hashed
// behind FingerprintVersion 3. Journals, the result cache and cluster
// routing key on them, so they may change only together with
// FingerprintVersion.
var goldenFingerprints = map[string][2]string{
	"campus-100-100": {
		"a2f88bc45545136f2f22e2e62dfe0f48aa11cf7ae5ed383d21a65cf1a519c489",
		"485299f379bf141586a190adb508a31ea05e4014932e2d2557e73cf7eb5d8917",
	},
	"example-spec": {
		"0772925317f873d50a778c6740d4f16e083795db9ffa850959cabfcb994a8d1d",
		"de6a95e6b7c4ebb676e3c3ad2666274fe2b4432dec6e7f9b628435d17f424075",
	},
	"grammar-24x6": {
		"39efd6fb0c355027e7d578a4543ea3725aee238797c0c5dabef208045ef7680c",
		"1c8cfa403adf7b7536a9aeb526d2bad17259067c44c1d08f86cde956b818c865",
	},
	"grammar-46x10": {
		"5de1b6f138fafe25cbd1b12130ede6c239b8ee1f2fa20c7c658f7d40ac7a2868",
		"a5213c5d0395515e8f2b1e4815471a5f3c701d9e6ecb7e958a58e5d957f203e3",
	},
	"grammar-60x10": {
		"e0a83db121dbe314ece7c327bbac04e577fa4b98c83406f5a6a7a4cc48d0b477",
		"800f7cfa6bb23e1c6adb15b3c2fbfdb2478fd5d0b834b031fe5ff191c39b1748",
	},
	"paper": {
		"54d20e2f4d18630101b8857c9acdafd5e6102da17b00c0f6f62f61f13430320f",
		"6fc96b7f466d64d2a8ec474797337662f623578e8c79e5320d30b34f06212f15",
	},
	"paper-decorated": {
		"93210c263f8e58bd3b3a6116720249dace5fe58c0c1c2c1e960aeb9796032a15",
		"d27add49a6395ba6544023b06292be1e75007dd9eba4c08205fbda368800e604",
	},
}

func TestCanonicalGoldenBytes(t *testing.T) {
	probs := goldenProblems(t)
	if len(probs) != len(goldenFingerprints) {
		t.Fatalf("%d golden problems, %d recorded fingerprints", len(probs), len(goldenFingerprints))
	}
	for name, p := range probs {
		got, want := Canonical(p), referenceCanonical(p)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: canonical bytes differ from the fmt rendering:\n%s", name, firstDiff(got, want))
		}
		fps := [2]string{Fingerprint(p), FamilyFingerprint(p)}
		if fps != goldenFingerprints[name] {
			t.Errorf("%s: fingerprints %v, recorded %v", name, fps, goldenFingerprints[name])
		}
		// The hash input is the version byte followed by the canonical
		// bytes, nothing else.
		sum := sha256.Sum256(append([]byte{FingerprintVersion}, want...))
		if hex.EncodeToString(sum[:]) != fps[0] {
			t.Errorf("%s: Fingerprint is not sha256(version || reference canonical)", name)
		}
	}
}

// firstDiff renders the first line on which two serializations differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

var benchCanonical []byte

// BenchmarkCanonicalCampus100 is the serialization every submitted
// campus job pays for its cache key.
func BenchmarkCanonicalCampus100(b *testing.B) {
	p := goldenProblems(b)["campus-100-100"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCanonical = Canonical(p)
	}
}
