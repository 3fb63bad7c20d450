package spec

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"configsynth/internal/core"
	"configsynth/internal/isolation"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// referenceParse is Parse as it stood before Scan: a bufio.Scanner over
// the lines, strings.Fields per line, and the network, the all-pairs
// flows and the requirement set built whole. The one change is the rule
// that devices, costs, nodes, services and sliders appear once. Only the
// catalog construction, which Scan moved verbatim into buildCatalog, is
// shared.
func referenceParse(text string) (*core.Problem, error) {
	var (
		nDevices     int
		orders       []isolation.OrderConstraint
		costs        []int64
		hosts        int
		routers      int
		links        [][2]int
		linkSeen     = map[[2]int]bool{}
		services     = 1
		requirements [][3]int
		sliders      []float64
		given        = map[string]bool{}
		lineNo       int
	)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		key, args := fields[0], fields[1:]
		fail := func(msg string) error {
			return fmt.Errorf("%w: line %d: %s", ErrSyntax, lineNo, msg)
		}
		switch key {
		case "devices", "costs", "nodes", "services", "sliders":
			if given[key] {
				return nil, fail("repeated " + key)
			}
			given[key] = true
		}
		var err error
		switch key {
		case "devices":
			if len(args) != 1 {
				return nil, fail("devices expects one integer")
			}
			if nDevices, err = strconv.Atoi(args[0]); err != nil || nDevices < 0 {
				return nil, fail("bad devices")
			}
		case "order":
			if len(args) != 3 {
				return nil, fail("order expects three")
			}
			a, err1 := strconv.Atoi(args[0])
			b, err2 := strconv.Atoi(args[1])
			rel, err3 := strconv.Atoi(args[2])
			if err1 != nil || err2 != nil || err3 != nil || rel < 1 || rel > 3 {
				return nil, fail("bad order")
			}
			orders = append(orders, isolation.OrderConstraint{A: isolation.PatternID(a), B: isolation.PatternID(b), Rel: isolation.Relation(rel)})
		case "costs":
			for _, a := range args {
				c, err := strconv.ParseInt(a, 10, 64)
				if err != nil || c < 0 {
					return nil, fail("bad cost")
				}
				costs = append(costs, c)
			}
		case "nodes":
			if len(args) != 2 {
				return nil, fail("nodes expects two")
			}
			var err1, err2 error
			hosts, err1 = strconv.Atoi(args[0])
			routers, err2 = strconv.Atoi(args[1])
			if err1 != nil || err2 != nil || hosts <= 0 || routers < 0 {
				return nil, fail("bad nodes")
			}
		case "link":
			if len(args) != 2 {
				return nil, fail("link expects two")
			}
			a, err1 := strconv.Atoi(args[0])
			b, err2 := strconv.Atoi(args[1])
			if err1 != nil || err2 != nil || a == b {
				return nil, fail("bad link")
			}
			lo, hi := min(a, b), max(a, b)
			if linkSeen[[2]int{lo, hi}] {
				return nil, fail("duplicate link")
			}
			linkSeen[[2]int{lo, hi}] = true
			links = append(links, [2]int{a, b})
		case "services":
			if len(args) != 1 {
				return nil, fail("services expects one")
			}
			if services, err = strconv.Atoi(args[0]); err != nil || services <= 0 {
				return nil, fail("bad services")
			}
		case "require":
			if len(args) != 2 && len(args) != 3 {
				return nil, fail("require expects two or three")
			}
			src, err1 := strconv.Atoi(args[0])
			dst, err2 := strconv.Atoi(args[1])
			svc, err3 := 1, error(nil)
			if len(args) == 3 {
				svc, err3 = strconv.Atoi(args[2])
			}
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fail("bad require")
			}
			requirements = append(requirements, [3]int{src, dst, svc})
		case "sliders":
			if len(args) != 3 {
				return nil, fail("sliders expects three")
			}
			for _, a := range args {
				v, err := strconv.ParseFloat(a, 64)
				if err != nil || v < 0 {
					return nil, fail("bad slider")
				}
				sliders = append(sliders, v)
			}
		default:
			return nil, fail("unknown directive")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if hosts == 0 || len(sliders) != 3 {
		return nil, fmt.Errorf("%w: missing nodes or sliders", ErrSyntax)
	}
	catalog, err := buildCatalog(nDevices, costs, orders)
	if err != nil {
		return nil, err
	}
	net := topology.New()
	ids := make([]topology.NodeID, hosts+routers+1)
	for i := 1; i <= hosts; i++ {
		ids[i] = net.AddHost(fmt.Sprintf("h%d", i))
	}
	for i := hosts + 1; i <= hosts+routers; i++ {
		ids[i] = net.AddRouter(fmt.Sprintf("r%d", i-hosts))
	}
	for _, l := range links {
		if l[0] < 1 || l[0] > hosts+routers || l[1] < 1 || l[1] > hosts+routers {
			return nil, fmt.Errorf("%w: link out of range", ErrSyntax)
		}
		if _, err := net.Connect(ids[l[0]], ids[l[1]]); err != nil {
			return nil, err
		}
	}
	svcIDs := make([]usability.Service, services)
	for i := range svcIDs {
		svcIDs[i] = usability.Service(i + 1)
	}
	reqs := usability.NewRequirements()
	for _, r := range requirements {
		if r[0] < 1 || r[0] > hosts || r[1] < 1 || r[1] > hosts || r[2] < 1 || r[2] > services {
			return nil, fmt.Errorf("%w: requirement out of range", ErrSyntax)
		}
		reqs.Require(usability.Flow{Src: ids[r[0]], Dst: ids[r[1]], Svc: usability.Service(r[2])})
	}
	return &core.Problem{
		Network:      net,
		Catalog:      catalog,
		Flows:        core.AllPairsFlows(net, svcIDs),
		Requirements: reqs,
		Thresholds: core.Thresholds{
			IsolationTenths: int(math.Round(sliders[0] * 10)),
			UsabilityTenths: int(math.Round(sliders[1] * 10)),
			CostBudget:      int64(math.Round(sliders[2])),
		},
	}, nil
}

// checkScan holds Scan to the path it replaced on one input: it accepts
// exactly what the reference parser accepts and Validate passes, as does
// Parse, and a spec it accepts fingerprints like the problem either
// parser builds. It returns the fingerprint, "" for a rejected input.
func checkScan(t *testing.T, text string) string {
	t.Helper()
	sp, scanErr := Scan(text)
	ref, refErr := referenceParse(text)
	if refErr == nil {
		refErr = ref.Validate()
	}
	if (scanErr == nil) != (refErr == nil) {
		t.Fatalf("Scan error %v, reference parse + Validate error %v, on\n%s", scanErr, refErr, text)
	}
	p, parseErr := Parse(strings.NewReader(text))
	if (scanErr == nil) != (parseErr == nil) {
		t.Fatalf("Scan error %v, Parse error %v, on\n%s", scanErr, parseErr, text)
	}
	if scanErr != nil {
		return ""
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Parse built a problem Validate refuses (%v) from\n%s", err, text)
	}
	fp := sp.Fingerprint()
	if want := Fingerprint(ref); fp != want {
		t.Fatalf("(*Spec).Fingerprint %s, Fingerprint(referenceParse) %s, on\n%s", fp, want, text)
	}
	if got := Fingerprint(p); got != fp {
		t.Fatalf("(*Spec).Fingerprint %s, Fingerprint(Parse) %s, on\n%s", fp, got, text)
	}
	return fp
}

// parseErrorCases are inputs every parser must refuse, each for its own
// reason.
var parseErrorCases = []struct{ name, input string }{
	{"unknown directive", "frobnicate 1\n"},
	{"missing nodes", "sliders 1 1 1\n"},
	{"missing sliders", "nodes 2 1\nlink 1 3\nlink 2 3\n"},
	{"bad order rel", "order 1 2 9\nnodes 2 1\nsliders 1 1 1\n"},
	{"link out of range", "nodes 2 1\nlink 1 9\nsliders 1 1 1\n"},
	{"require out of range", "nodes 2 1\nlink 1 3\nlink 2 3\nrequire 1 9\nsliders 1 1 1\n"},
	{"negative cost", "costs -1\nnodes 2 1\nsliders 1 1 1\n"},
	{"bad sliders", "nodes 2 1\nsliders 1 x 1\n"},
	{"non-numeric devices", "devices x\nnodes 2 1\nsliders 1 1 1\n"},
	{"negative devices", "devices -2\nnodes 2 1\nsliders 1 1 1\n"},
	{"non-numeric nodes", "nodes two 1\nsliders 1 1 1\n"},
	{"non-numeric routers", "nodes 2 one\nsliders 1 1 1\n"},
	{"non-numeric services", "nodes 2 1\nservices many\nsliders 1 1 1\n"},
	{"zero services", "nodes 2 1\nservices 0\nsliders 1 1 1\n"},
	{"duplicate link", "nodes 2 1\nlink 1 3\nlink 1 3\nlink 2 3\nsliders 1 1 1\n"},
	{"duplicate link reversed", "nodes 2 1\nlink 1 3\nlink 3 1\nlink 2 3\nsliders 1 1 1\n"},
	{"self link", "nodes 2 1\nlink 1 1\nsliders 1 1 1\n"},
	{"order on unknown pattern", "devices 3\norder 1 9 2\nnodes 2 1\nlink 1 3\nlink 2 3\nsliders 1 1 1\n"},
	{"order outside device restriction", "devices 2\norder 2 3 2\nnodes 2 1\nlink 1 3\nlink 2 3\nsliders 1 1 1\n"},
	{"require unknown service", "nodes 2 1\nlink 1 3\nlink 2 3\nservices 2\nrequire 1 2 3\nsliders 1 1 1\n"},
	{"repeated devices", "devices 3\nnodes 2 1\ndevices 2\nsliders 1 1 1\n"},
	{"repeated costs", "costs 5\nnodes 2 1\ncosts 8\nsliders 1 1 1\n"},
	{"repeated nodes", "nodes 3 1\nlink 1 5\nnodes 4 1\nsliders 1 1 1\n"},
	{"repeated services", "nodes 2 1\nservices 1\nservices 2\nsliders 1 1 1\n"},
	{"repeated sliders", "nodes 2 1\nsliders 1 1 1\nsliders 2 2 2\n"},
	{"one host", "nodes 1 0\nsliders 1 1 1\n"},
	{"host required to itself", "nodes 4 1\nlink 1 5\nlink 2 5\nlink 3 5\nlink 4 5\nrequire 3 3\nsliders 1 1 1\n"},
}

// permute returns text with its lines shuffled.
func permute(rng *rand.Rand, text string) string {
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return strings.Join(lines, "\n") + "\n"
}

// randomSpec writes a small spec in the grammar: most of them valid,
// some with an order that contradicts itself or names a pattern the
// devices dropped, a link out of range, a host required to itself, or
// one host.
func randomSpec(rng *rand.Rand) string {
	var b strings.Builder
	hosts, routers := 1+rng.Intn(7), rng.Intn(4)
	if rng.Intn(20) == 0 {
		hosts = 1
	}
	services := 1 + rng.Intn(3)
	devices := rng.Intn(5)
	fmt.Fprintf(&b, "devices %d\n", devices)
	if rng.Intn(2) == 0 {
		b.WriteString("costs")
		for i := rng.Intn(6); i > 0; i-- {
			fmt.Fprintf(&b, " %d", rng.Intn(20))
		}
		b.WriteString("\n")
	}
	if rng.Intn(4) == 0 {
		for i := 1 + rng.Intn(2); i > 0; i-- {
			fmt.Fprintf(&b, "order %d %d %d\n", 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(3))
		}
	}
	fmt.Fprintf(&b, "nodes %d %d\n", hosts, routers)
	n := hosts + routers
	seen := map[[2]int]bool{}
	for i := rng.Intn(2 * n); i > 0; i-- {
		a, c := 1+rng.Intn(n), 1+rng.Intn(n)
		if rng.Intn(50) == 0 {
			a = n + 1
		}
		if a == c || seen[[2]int{min(a, c), max(a, c)}] {
			continue
		}
		seen[[2]int{min(a, c), max(a, c)}] = true
		fmt.Fprintf(&b, "link\t%d  %d\n", a, c)
	}
	fmt.Fprintf(&b, "services %d\n", services)
	for i := rng.Intn(4); i > 0; i-- {
		src, dst := 1+rng.Intn(hosts), 1+rng.Intn(hosts)
		if src == dst && rng.Intn(3) != 0 {
			continue
		}
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "require %d %d\n", src, dst)
		} else {
			fmt.Fprintf(&b, "require %d %d %d\n", src, dst, 1+rng.Intn(services))
		}
	}
	b.WriteString("# a comment\n\n")
	fmt.Fprintf(&b, "sliders %.1f %g %d\n", rng.Float64()*10, float64(rng.Intn(11)), rng.Intn(100))
	return b.String()
}

// TestScanMatchesParse runs checkScan over generated specs, every Parse
// error case (one host and a host required to itself among them), and
// white space strings.Fields splits on, each in its own order and in
// shuffled ones.
// The verdict and the fingerprint must not depend on the order.
func TestScanMatchesParse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := []string{
		exampleInput, permutedExample, roundTripSpec,
		"nodes 2 1\nlink 1 3\r\nlink 2\v3\nsliders 1 1 1",
		"  # indented comment\n\t\nnodes 2 0\nlink 1 2\nsliders 0 0 0\n",
	}
	for _, c := range parseErrorCases {
		inputs = append(inputs, c.input)
	}
	for i := 0; i < 400; i++ {
		inputs = append(inputs, randomSpec(rng))
	}
	accepted := 0
	for _, text := range inputs {
		fp := checkScan(t, text)
		if fp != "" {
			accepted++
		}
		for k := 0; k < 4; k++ {
			if got := checkScan(t, permute(rng, text)); got != fp {
				t.Fatalf("a permutation of\n%s\nfingerprints %q, the input %q", text, got, fp)
			}
		}
	}
	if accepted < len(inputs)/2 || accepted > len(inputs)*9/10 {
		t.Errorf("%d of %d inputs accepted: the inputs do not cover both verdicts", accepted, len(inputs))
	}
}

// FuzzScan is TestScanMatchesParse on arbitrary text and one shuffle of
// it. Inputs that declare more than 16 nodes of a kind or 16 services
// are skipped, which keeps every input to a few milliseconds: each is
// parsed and built three times over, twice.
func FuzzScan(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, text := range []string{exampleInput, permutedExample, roundTripSpec, "nodes 1 0\nsliders 1 1 1\n"} {
		f.Add(text, int64(0))
	}
	for _, c := range parseErrorCases {
		f.Add(c.input, int64(1))
	}
	for i := 0; i < 20; i++ {
		f.Add(randomSpec(rng), int64(i))
	}
	f.Fuzz(func(t *testing.T, text string, seed int64) {
		for _, line := range strings.Split(text, "\n") {
			fields := strings.Fields(line)
			if len(fields) > 0 && (fields[0] == "nodes" || fields[0] == "services") {
				for _, a := range fields[1:] {
					if n, err := strconv.Atoi(a); err == nil && n > 16 {
						t.Skip("network too large to build per input")
					}
				}
			}
		}
		fp := checkScan(t, text)
		if got := checkScan(t, permute(rand.New(rand.NewSource(seed)), text)); got != fp {
			t.Fatalf("a permutation fingerprints %q, the input %q", got, fp)
		}
	})
}

// TestOneHostIsErrNoFlows: a spec of one host fails as the problem it
// would build fails Validate.
func TestOneHostIsErrNoFlows(t *testing.T) {
	if _, err := Scan("nodes 1 0\nsliders 1 1 1\n"); !errors.Is(err, core.ErrNoFlows) {
		t.Errorf("got %v, want core.ErrNoFlows", err)
	}
}

// TestRepeatedDirectiveNamesBothLines: a second devices, costs, nodes,
// services or sliders is refused at its own line, naming the first, in
// either order — before, the later line won and the file's meaning
// depended on the order of its lines.
func TestRepeatedDirectiveNamesBothLines(t *testing.T) {
	for _, pair := range [][2]string{
		{"nodes 3 1", "nodes 4 1"},
		{"costs 5", "costs 8"},
		{"sliders 1 1 1", "sliders 2 2 2"},
	} {
		for _, order := range [][2]string{{pair[0], pair[1]}, {pair[1], pair[0]}} {
			text := "services 1\n" + order[0] + "\n# between\n" + order[1] + "\n"
			_, err := Scan(text)
			if !errors.Is(err, ErrSyntax) || !strings.Contains(err.Error(), "line 4") || !strings.Contains(err.Error(), "line 2") {
				t.Errorf("%q then %q: got %v, want ErrSyntax at line 4 naming line 2", order[0], order[1], err)
			}
		}
	}
}

var benchFingerprint string

// BenchmarkScanFingerprint40 is what a hit of a 40-host, 2-service spec
// costs before its cache lookup: one Scan and one streamed fingerprint.
func BenchmarkScanFingerprint40(b *testing.B) {
	text := gridSpec(40, 6, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp, err := Scan(text)
		if err != nil {
			b.Fatal(err)
		}
		benchFingerprint = sp.Fingerprint()
	}
}

// gridSpec is a spec of hosts hosts spread over a ring of routers, with
// a requirement from every third host to the next.
func gridSpec(hosts, routers, services int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "devices 4\ncosts 5 8 6 4\nnodes %d %d\n", hosts, routers)
	for h := 1; h <= hosts; h++ {
		fmt.Fprintf(&b, "link %d %d\n", h, hosts+1+h%routers)
	}
	for r := 0; r < routers; r++ {
		fmt.Fprintf(&b, "link %d %d\n", hosts+1+r, hosts+1+(r+1)%routers)
	}
	fmt.Fprintf(&b, "services %d\n", services)
	for h := 1; h+1 <= hosts; h += 3 {
		fmt.Fprintf(&b, "require %d %d %d\n", h, h+1, 1+h%services)
	}
	b.WriteString("sliders 3 5 120\n")
	return b.String()
}
