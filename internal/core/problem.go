// Package core implements ConfigSynth's security design synthesis model
// (paper §III–§IV): it encodes the network topology, isolation
// requirements, usability and deployment-cost constraints into the SMT
// substrate (internal/smt) and extracts optimal security configurations
// — an isolation pattern per flow plus security-device placements on
// topology links.
package core

import (
	"errors"
	"fmt"
	"os"
	"slices"

	"configsynth/internal/isolation"
	"configsynth/internal/policy"
	"configsynth/internal/smt"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// Thresholds are the three slider values of paper Eq. (9). Isolation and
// usability use the paper's 0–10 scale expressed in tenths (0–100) so
// that fractional slider positions such as 8.2 stay exact integers.
type Thresholds struct {
	// IsolationTenths is Th_I×10: network isolation must be ≥ this.
	IsolationTenths int
	// UsabilityTenths is Th_U×10: network usability must be ≥ this.
	UsabilityTenths int
	// CostBudget is Th_C: total deployment cost must be ≤ this, in
	// thousands of dollars.
	CostBudget int64
}

// Options tune the synthesis model. The zero value selects defaults.
type Options struct {
	// TunnelSlackHops is the paper's T: IPSec gateways must be placed
	// within T links of each end host. On routes of at least 2T links
	// that means two distinct gateways; on shorter routes the two
	// windows overlap and a single gateway within T links of both ends
	// can terminate the tunnel at either end. Default 2.
	TunnelSlackHops int
	// Routes bounds flow-route enumeration.
	Routes topology.RouteOptions
	// AlphaPct is the paper's α (incoming-traffic weight of Eq. 2) in
	// percent, used for per-host isolation reporting. Default 75.
	AlphaPct int
	// SolverBudget caps solver conflicts per Solve check; 0 means
	// unlimited.
	SolverBudget int64
	// ProbeBudget caps solver conflicts per optimization probe
	// (MaxIsolation, MinCost, MaxUsability, Assist, Explain). When a
	// probe exhausts its budget the optimizer keeps the best design
	// found so far (anytime semantics, like running an SMT solver under
	// a timeout). Default 200000; negative means unlimited.
	ProbeBudget int64
	// DisableFlowTheory turns off the flow-assignment theory propagator
	// and solves with clause learning plus pseudo-Boolean propagation
	// only. This exists for the ablation benchmarks; production use
	// should leave it false.
	DisableFlowTheory bool
	// Workers selects portfolio solving at the configsynth API level:
	// K > 1 races K diversified solvers per query with deterministic
	// results. 0 or 1 keeps the single-threaded solver (the default).
	Workers int
	// Verify enables the solver's self-check hooks: after every Sat the
	// model is re-validated against every clause and pseudo-Boolean
	// constraint, and after every Unsat the reported core is re-solved
	// and must stay Unsat. A failed check panics, since it means the
	// solver produced an unsound answer. The CONFSYNTH_VERIFY
	// environment variable (any value other than empty, "0", or "false")
	// also enables it; verification is off by default and adds only a
	// branch per check when disabled.
	Verify bool
	// Solver diversifies the underlying CDCL search (seed, random
	// decision rate, phase polarity, restart schedule). The portfolio
	// layer sets this per worker; the zero value is the default solver.
	Solver smt.SolverConfig
}

// Normalized returns the options with every defaulted field filled in
// (the form the synthesizer actually runs under). Canonical problem
// serialization (internal/spec.Fingerprint) relies on it so that a zero
// Options and an explicitly-defaulted Options hash identically.
func (o Options) Normalized() Options {
	o = o.withDefaults()
	o.Routes = o.Routes.Normalized()
	return o
}

func (o Options) withDefaults() Options {
	if o.TunnelSlackHops <= 0 {
		o.TunnelSlackHops = 2
	}
	if o.AlphaPct <= 0 || o.AlphaPct > 100 {
		o.AlphaPct = 75
	}
	if o.ProbeBudget == 0 {
		o.ProbeBudget = 200_000
	}
	if !o.Verify {
		o.Verify = envVerify()
	}
	return o
}

// envVerify reports whether CONFSYNTH_VERIFY asks for self-check mode.
func envVerify() bool {
	switch os.Getenv("CONFSYNTH_VERIFY") {
	case "", "0", "false":
		return false
	default:
		return true
	}
}

// Preplacement records a security device already deployed on the link
// between A and B: the encoding pins the corresponding placement
// variable true at zero cost, so a solve builds on the existing
// deployment instead of paying for it again. Decomposition
// (internal/decomp) hands a boundary subproblem the placements its
// endpoint regions already chose this way; operators can likewise model
// brownfield networks with devices already racked.
type Preplacement struct {
	A, B topology.NodeID
	Dev  isolation.DeviceID
}

// Problem is a complete synthesis input: topology, flows, catalog,
// business constraints, and policies.
type Problem struct {
	// Network is the topology graph ⟨N, L⟩.
	Network *topology.Network
	// Catalog holds the isolation patterns, devices, and scores.
	Catalog *isolation.Catalog
	// Flows lists every directed service flow under consideration.
	Flows []usability.Flow
	// Requirements are the connectivity requirements (CR rules).
	Requirements *usability.Requirements
	// Ranks are the flow demand ranks a_{i,j}(g).
	Ranks *usability.Ranks
	// Policies are the user-defined constraints (UIC rules).
	Policies *policy.Set
	// Preplaced lists devices already deployed on links (pinned true at
	// zero marginal cost in the encoding).
	Preplaced []Preplacement
	// Thresholds are the three sliders.
	Thresholds Thresholds
	// Options tune the model.
	Options Options
}

// Errors reported by problem validation and solving.
var (
	ErrNoFlows        = errors.New("core: problem has no flows")
	ErrBadFlow        = errors.New("core: flow references an invalid host")
	ErrBudgetExceeded = errors.New("core: solver budget exhausted")
)

// Validate checks the problem for structural errors. Flows are checked
// in declaration order, each for its endpoints and then for repeating an
// earlier flow; a requirement outside the flows is named in CompareFlows
// order; preplacements come last.
func (p *Problem) Validate() error {
	if p.Network == nil {
		return errors.New("core: nil network")
	}
	if p.Catalog == nil {
		return errors.New("core: nil catalog")
	}
	if len(p.Flows) == 0 {
		return ErrNoFlows
	}
	seen := newFlowSet(p.Network.NumNodes(), p.Flows)
	for _, f := range p.Flows {
		na, okA := p.Network.Node(f.Src)
		nb, okB := p.Network.Node(f.Dst)
		if !okA || !okB || na.Kind != topology.Host || nb.Kind != topology.Host || f.Src == f.Dst {
			return fmt.Errorf("%w: %v", ErrBadFlow, f)
		}
		if !seen.add(f) {
			return fmt.Errorf("core: duplicate flow %v", f)
		}
	}
	if p.Requirements != nil {
		// One look-up in the flow set per requirement, in the order the
		// first one missing is named in.
		for _, f := range p.Requirements.Sorted() {
			if !seen.has(f) {
				return fmt.Errorf("core: connectivity requirement %v is not among the flows", f)
			}
		}
	}
	for _, pp := range p.Preplaced {
		if _, ok := p.Network.LinkBetween(pp.A, pp.B); !ok {
			return fmt.Errorf("core: preplacement on non-existent link %d-%d", pp.A, pp.B)
		}
		if _, ok := p.Catalog.Device(pp.Dev); !ok {
			return fmt.Errorf("core: preplacement on link %d-%d names unknown device %d", pp.A, pp.B, pp.Dev)
		}
	}
	return nil
}

// flowSet is the set of flows Validate has walked so far. It is a
// bitset over (src, dst, service - lowest service) when that index space
// costs at most about 64 bits per flow, and otherwise a mark per flow of
// the flows' sorted view, found by binary search.
type flowSet struct {
	nodes, lo, hi int64
	bits          []uint64
	sorted        []usability.Flow
	marked        []bool
}

func newFlowSet(nodes int, flows []usability.Flow) *flowSet {
	s := &flowSet{nodes: int64(nodes), lo: int64(flows[0].Svc), hi: int64(flows[0].Svc)}
	for _, f := range flows {
		s.lo, s.hi = min(s.lo, int64(f.Svc)), max(s.hi, int64(f.Svc))
	}
	limit, cells := 64*int64(len(flows))+4096, max(s.nodes*s.nodes, 1)
	if cells <= limit && s.hi-s.lo+1 <= limit/cells {
		s.bits = make([]uint64, (cells*(s.hi-s.lo+1)+63)/64)
	} else {
		s.sorted = usability.SortedFlows(flows)
		s.marked = make([]bool, len(s.sorted))
	}
	return s
}

// index is f's position in the set (bit or sorted view), or -1.
func (s *flowSet) index(f usability.Flow) int64 {
	if s.bits == nil {
		i, ok := slices.BinarySearchFunc(s.sorted, f, usability.CompareFlows)
		if !ok {
			return -1
		}
		return int64(i)
	}
	src, dst, svc := int64(f.Src), int64(f.Dst), int64(f.Svc)
	if src < 0 || src >= s.nodes || dst < 0 || dst >= s.nodes || svc < s.lo || svc > s.hi {
		return -1
	}
	return (src*s.nodes+dst)*(s.hi-s.lo+1) + svc - s.lo
}

// has reports whether f has been added.
func (s *flowSet) has(f usability.Flow) bool {
	i := s.index(f)
	switch {
	case i < 0:
		return false
	case s.bits == nil:
		return s.marked[i]
	default:
		return s.bits[i/64]&(1<<(i%64)) != 0
	}
}

// add adds f, one of the flows the set was built over, and reports
// whether it was new.
func (s *flowSet) add(f usability.Flow) bool {
	if s.has(f) {
		return false
	}
	if i := s.index(f); s.bits == nil {
		s.marked[i] = true
	} else {
		s.bits[i/64] |= 1 << (i % 64)
	}
	return true
}

// normalized fills optional fields with defaults.
func (p *Problem) normalized() *Problem {
	out := *p
	if out.Requirements == nil {
		out.Requirements = usability.NewRequirements()
	}
	if out.Ranks == nil {
		out.Ranks = usability.NewRanks()
	}
	if out.Policies == nil {
		out.Policies = policy.NewSet()
	}
	out.Options = out.Options.withDefaults()
	return &out
}

// AllPairsFlows builds a flow between every ordered pair of hosts for
// each of the given services — the paper's evaluation workload shape.
func AllPairsFlows(net *topology.Network, services []usability.Service) []usability.Flow {
	hosts := net.Hosts()
	flows := make([]usability.Flow, 0, len(hosts)*(len(hosts)-1)*len(services))
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			for _, svc := range services {
				flows = append(flows, usability.Flow{Src: src, Dst: dst, Svc: svc})
			}
		}
	}
	return flows
}

// pairKey is an unordered host pair.
type pairKey struct {
	a, b topology.NodeID // a < b
}

func mkPair(x, y topology.NodeID) pairKey {
	if x > y {
		x, y = y, x
	}
	return pairKey{a: x, b: y}
}
