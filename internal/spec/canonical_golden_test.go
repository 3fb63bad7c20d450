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
// problems as computed by the fmt-based Canonical at the commit before
// the rewrite. Journals, the result cache and cluster routing key on
// them, so they may change only together with FingerprintVersion.
var goldenFingerprints = map[string][2]string{
	"campus-100-100": {
		"69e90f9afb05536cb4428b1f85e84688bfce12d5a93f9965c5c0d0b0e12141f6",
		"d5e72b3776f10538b564067613a66d268529b5e18db19aa9133d81da3ffdd241",
	},
	"example-spec": {
		"78079d21f49b1a270946a4ef5182fac87c815b0c120c83fe8e89afffc2012269",
		"f675581993a696b5435566324bfc8cb64335252dc46254c711755c2e5b2be6aa",
	},
	"grammar-24x6": {
		"fe22a58b7e26ede9e4dd33ba9773dea582e61a6f4271c9ba25c285db71fb1a44",
		"265c449b990768d18d0b0d29dbe1e13cf70a0f907c5f7de3f1bf0ccf41ff49d6",
	},
	"grammar-46x10": {
		"9b18ad374c58822e730c09fb0cebb9b080129b504225152ebabdebb0c360f26b",
		"a4442927f3d2ea3fe89a959437f50d9e06cb4f4c316da31748051ea9ef052f47",
	},
	"grammar-60x10": {
		"d193e44ca648991334f00db0508bd1e7ca3bd50f7eb8b193aab68d9a89f0247c",
		"a99398dfd337188cfff8cc060c993a7ed8d40248073f9bd16ff8359978630bda",
	},
	"paper": {
		"c297dc1fcc498f19bd14498eee0c269f0416844381444aa011fa774d21614045",
		"9729643c715eeaa523a83cd74997ec7d2923f674d0d48890ef47c33cff1facee",
	},
	"paper-decorated": {
		"6b54443f9b5c913fdb4a5c197194a98bb5015a71ef37c5d8cdf3e95209ca9f18",
		"e1b7bb8a7c0842b00ed67432b1c3e7187f37955ba90eaaf7c28a529815a56f05",
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
