// Package configsynth is a formal framework for network security design
// synthesis, reproducing "A Formal Framework for Network Security Design
// Synthesis" (Rahman & Al-Shaer, ICDCS 2013).
//
// Given a network topology, security requirements expressed as isolation
// thresholds, and business constraints on usability and deployment cost,
// ConfigSynth synthesizes an optimal security configuration: an
// isolation pattern (access deny, trusted communication, payload
// inspection, proxy forwarding, ...) for every service flow, together
// with placements of the implementing security devices (firewall, IPSec
// gateway pair, IDS, proxy) on topology links.
//
// The synthesis problem is encoded into a built-from-scratch SMT
// substrate (CDCL SAT + pseudo-Boolean linear arithmetic + a
// flow-assignment theory) and solved incrementally, supporting
// satisfiability checks, optimization queries (maximum isolation under a
// budget, minimum cost, maximum usability), slider assistance, and
// unsat-core-driven explanation of infeasible requirement combinations.
//
// Basic use:
//
//	net := configsynth.NewNetwork()
//	web := net.AddHost("web")
//	db := net.AddHost("db")
//	r := net.AddRouter("core")
//	net.Connect(web, r)
//	net.Connect(r, db)
//
//	problem := &configsynth.Problem{
//	    Network:    net,
//	    Catalog:    configsynth.DefaultCatalog(),
//	    Flows:      configsynth.AllPairsFlows(net, []configsynth.Service{1}),
//	    Thresholds: configsynth.Thresholds{IsolationTenths: 30, CostBudget: 25},
//	}
//	syn, err := configsynth.New(problem)
//	design, err := syn.Solve()
package configsynth

import (
	"io"

	"configsynth/internal/core"
	"configsynth/internal/isolation"
	"configsynth/internal/netgen"
	"configsynth/internal/policy"
	"configsynth/internal/portfolio"
	"configsynth/internal/spec"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// Topology types.
type (
	// Network is the topology graph of hosts, routers, and links.
	Network = topology.Network
	// NodeID identifies a host or router.
	NodeID = topology.NodeID
	// LinkID identifies an undirected link.
	LinkID = topology.LinkID
	// Link is an undirected connection between two nodes.
	Link = topology.Link
	// RouteOptions bounds flow-route enumeration.
	RouteOptions = topology.RouteOptions
)

// Flow and requirement types.
type (
	// Service identifies a network service (protocol-port pair).
	Service = usability.Service
	// Flow is a directed service flow between two hosts.
	Flow = usability.Flow
	// Requirements is the set of connectivity requirements (CR rules).
	Requirements = usability.Requirements
	// Ranks assigns flow demand ranks.
	Ranks = usability.Ranks
)

// Isolation catalog types.
type (
	// Catalog registers isolation patterns, devices, and scores.
	Catalog = isolation.Catalog
	// Pattern describes one isolation pattern.
	Pattern = isolation.Pattern
	// PatternID identifies an isolation pattern (paper Table I).
	PatternID = isolation.PatternID
	// Device describes one security device type.
	Device = isolation.Device
	// DeviceID identifies a security device type (paper Table II).
	DeviceID = isolation.DeviceID
	// OrderConstraint is a partial-order statement over pattern scores.
	OrderConstraint = isolation.OrderConstraint
)

// The isolation patterns of paper Table I.
const (
	PatternNone       = isolation.PatternNone
	AccessDeny        = isolation.AccessDeny
	TrustedComm       = isolation.TrustedComm
	PayloadInspection = isolation.PayloadInspection
	ProxyForwarding   = isolation.ProxyForwarding
	ProxyTrustedComm  = isolation.ProxyTrustedComm
	SourceHiding      = isolation.SourceHiding
)

// The security devices of paper Table II.
const (
	Firewall = isolation.Firewall
	IPSec    = isolation.IPSec
	IDS      = isolation.IDS
	Proxy    = isolation.Proxy
	NAT      = isolation.NAT
)

// Policy types (the paper's user-defined UIC constraints).
type (
	// PolicySet is an ordered collection of user-defined constraints.
	PolicySet = policy.Set
	// PolicyRule is one user-defined constraint.
	PolicyRule = policy.Rule
	// ForbidPattern forbids a pattern for a service's flows.
	ForbidPattern = policy.ForbidPattern
	// RequirePattern forces a pattern on a service's flows.
	RequirePattern = policy.RequirePattern
	// PinFlow pins or forbids a pattern on one flow.
	PinFlow = policy.PinFlow
	// Implication is a conditional rule between two flows' patterns.
	Implication = policy.Implication
)

// AnyService matches every service in service-scoped policy rules.
const AnyService = policy.AnyService

// Synthesis types.
type (
	// Problem is a complete synthesis input.
	Problem = core.Problem
	// Thresholds are the three slider values (paper Eq. 9).
	Thresholds = core.Thresholds
	// Query is one question to a Synthesizer's Run: the thresholds held
	// and, for an optimisation, the one left free.
	Query = core.Query
	// Options tune the synthesis model.
	Options = core.Options
	// Synthesizer answers queries against the encoded model. With
	// Options.Workers > 1 it is a parallel portfolio: every
	// satisfiability probe is raced across diversified solvers with
	// deterministic results (see internal/portfolio).
	Synthesizer = portfolio.Solver
	// Design is a synthesized security configuration.
	Design = core.Design
	// ThresholdConflictError reports an UNSAT result with its core.
	ThresholdConflictError = core.ThresholdConflictError
	// ThresholdKind identifies one of the three slider constraints.
	ThresholdKind = core.ThresholdKind
	// Explanation is the result of the paper's Algorithm 1.
	Explanation = core.Explanation
	// Relaxation is one satisfiable way out of an UNSAT core.
	Relaxation = core.Relaxation
	// Suggestion proposes a satisfiable threshold value.
	Suggestion = core.Suggestion
	// AssistEntry is one row of the slider-assistance table (Table III).
	AssistEntry = core.AssistEntry
	// ModelStats describes the size of the encoded model.
	ModelStats = core.ModelStats
)

// Threshold kinds appearing in unsat cores.
const (
	ThresholdIsolation = core.ThresholdIsolation
	ThresholdUsability = core.ThresholdUsability
	ThresholdCost      = core.ThresholdCost
)

// GeneratorConfig describes a random evaluation network (paper §V-B).
type GeneratorConfig = netgen.Config

// NewNetwork returns an empty topology.
func NewNetwork() *Network { return topology.New() }

// NewRequirements returns an empty connectivity-requirement set.
func NewRequirements() *Requirements { return usability.NewRequirements() }

// NewRanks returns a rank table where every flow ranks equally.
func NewRanks() *Ranks { return usability.NewRanks() }

// NewPolicySet returns an empty policy rule set.
func NewPolicySet() *PolicySet { return policy.NewSet() }

// DefaultCatalog returns the catalog of paper Tables I and II: the five
// isolation patterns with scores derived from the paper's partial order,
// and the four security devices with default costs.
func DefaultCatalog() *Catalog { return isolation.DefaultCatalog() }

// ExtendedCatalog returns the default catalog plus the paper's §III-A
// source-identity-hiding pattern implemented by a NAT device.
func ExtendedCatalog() *Catalog { return isolation.ExtendedCatalog() }

// NewCatalog builds a custom catalog and solves its score partial order.
func NewCatalog(patterns []Pattern, devices []Device, order []OrderConstraint) (*Catalog, error) {
	return isolation.NewCatalog(patterns, devices, order)
}

// AllPairsFlows builds a flow between every ordered pair of hosts for
// each service.
func AllPairsFlows(net *Network, services []Service) []Flow {
	return core.AllPairsFlows(net, services)
}

// VerifyResult is the outcome of independently checking a design
// against a problem (device semantics via simulation, requirement and
// policy compliance, and recomputed scores vs thresholds).
type VerifyResult = core.VerifyResult

// New validates the problem and encodes it into the SMT substrate.
// With Options.Workers > 1 the returned synthesizer solves queries as a
// parallel portfolio of diversified solvers; the default (0 or 1) is
// the single-threaded solver.
func New(p *Problem) (*Synthesizer, error) { return portfolio.New(p, p.Options.Workers) }

// Verify independently checks a design against a problem by simulating
// every flow through the placed devices and re-deriving the scores. Use
// it as a test oracle for synthesized designs or as a bottom-up
// validator for hand-written configurations.
func Verify(p *Problem, d *Design) (*VerifyResult, error) { return core.Verify(p, d) }

// ExpandGroups expands group hosts into individual members (the paper's
// §V-B scaling argument, made executable). It returns the expanded
// problem and the member IDs per group.
func ExpandGroups(p *Problem, sizes map[NodeID]int) (*Problem, map[NodeID][]NodeID, error) {
	return core.ExpandGroups(p, sizes)
}

// BroadcastDesign maps a design synthesized on a grouped problem onto
// its expansion, copying patterns and placements to every group member.
func BroadcastDesign(grouped *Problem, d *Design, expanded *Problem, members map[NodeID][]NodeID) (*Design, error) {
	return core.BroadcastDesign(grouped, d, expanded, members)
}

// IsUnsat reports whether err is a threshold conflict.
func IsUnsat(err error) bool { return core.IsUnsat(err) }

// Generate builds a random synthesis problem per the paper's evaluation
// methodology.
func Generate(cfg GeneratorConfig) (*Problem, error) { return netgen.Generate(cfg) }

// PaperExample builds the paper's §IV-C running example problem.
func PaperExample() *Problem { return netgen.PaperExample() }

// ParseProblem reads a problem from the paper's Table IV-style input
// format.
func ParseProblem(r io.Reader) (*Problem, error) { return spec.Parse(r) }

// WriteDesign renders a design in the paper's output-file format
// (Table V isolation patterns plus Fig. 2(b) placements).
func WriteDesign(w io.Writer, p *Problem, d *Design) error { return spec.WriteDesign(w, p, d) }

// DeviceLabels builds link labels for Network.DOT from a design, to
// visualise the synthesized placements.
func DeviceLabels(p *Problem, d *Design) map[LinkID]string { return spec.DeviceLabels(p, d) }
