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
	// The ring links r1-r2 and r4-r5 (routers r1..r8 are nodes 0..7), in
	// the orientation the example declares them in.
	r1r2, r4r5 := topology.Link{A: 0, B: 1}, topology.Link{A: 3, B: 4}
	d.Preplaced = []core.Preplacement{
		{A: r4r5.B, B: r4r5.A, Dev: isolation.IPSec},
		{A: r1r2.A, B: r1r2.B, Dev: isolation.Firewall},
		{A: r4r5.A, B: r4r5.B, Dev: isolation.Firewall},
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
// behind FingerprintVersion 4, the head over the body's digest. Journals, the result cache and cluster
// routing key on them, so they may change only together with
// FingerprintVersion.
var goldenFingerprints = map[string][2]string{
	"campus-100-100": {
		"743f52cbac4a9fe89f2264ebdb1d27294129f3c1699929a278df43978614fc65",
		"db1185b70a62979f00e0b828980e9bcfdf554a5ddb4c914eb7c9c67b9ebe796a",
	},
	"example-spec": {
		"cfb345b0def59aa5704ed7513c6b3efee60c230f66d14a00c60572665c497d7d",
		"d58e4211842dd22d4cdbaf10687d5da5aa1b5cd10780462c4e052a8653ce5d50",
	},
	"grammar-24x6": {
		"03788c3b9ff9318953493c80c7ca292a94eff2e7b8ca1f251bf69e9fe2259096",
		"7d3cdb8b191897a2cd31a161a8fb8a09bec9be245221cff3c9f23611198808c1",
	},
	"grammar-46x10": {
		"b143feed4b0c6d3fcd3ef76f15f5a6dba97f33c08fa3aa8524b56685039c6119",
		"06a622359399a8a6f77c1b78e0c045237ac7268111de2de0f4a494015ac69140",
	},
	"grammar-60x10": {
		"f6ad820b4a0c41998e7e36ca42dc879dd7ff2a3cba97a5a8ba39c4f086dd873d",
		"4c0335608f4e848f42afc93c34181d47f1ed0fe9644e55063cd1bf9b93106386",
	},
	"paper": {
		"0b0fc2d89f69b5aa99d2c08275db8f4e4e3c6048f623d68dc0b9dd93735daa08",
		"a351eba3a89d9ec0d71d95e5f9c58633b4aa27a69fa1fdaf012d6af8a1881252",
	},
	"paper-decorated": {
		"8885860fafa25aad4c666381c5af9580f126acc09ebf59240f886d74d9aca4b4",
		"511d0bffdef7afe96fd735dcca83d98f706674a17690af69083e5e73c077415d",
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
		// The hash input is the version byte, the reference's head (its
		// lines up to and including the thresholds line) and the digest
		// of the rest of its lines, nothing else.
		head, body := splitHead(t, want)
		bodySum := sha256.Sum256(body)
		sum := sha256.Sum256(append(append([]byte{FingerprintVersion}, head...), bodySum[:]...))
		if hex.EncodeToString(sum[:]) != fps[0] {
			t.Errorf("%s: Fingerprint is not sha256(version || reference head || sha256(reference body))", name)
		}
	}
}

// splitHead cuts a canonical form after its thresholds line: the head a
// Key renders at each thresholds, and the body it digests once.
func splitHead(t *testing.T, canon []byte) (head, body []byte) {
	t.Helper()
	at := bytes.Index(canon, []byte("\nthresholds "))
	if at < 0 {
		t.Fatal("canonical form has no thresholds line")
	}
	end := at + 1 + bytes.IndexByte(canon[at+1:], '\n') + 1
	return canon[:end], canon[end:]
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
