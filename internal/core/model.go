package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"configsynth/internal/isolation"
	"configsynth/internal/policy"
	"configsynth/internal/sat"
	"configsynth/internal/smt"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

type pairDev struct {
	pair pairKey
	dev  isolation.DeviceID
}

type linkDev struct {
	link topology.LinkID
	dev  isolation.DeviceID
}

// Synthesizer holds the encoded synthesis model (paper Eq. 12) and
// answers satisfiability, optimization, and explanation queries against
// it incrementally.
type Synthesizer struct {
	prob     *Problem
	sol      *smt.Solver
	flows    []usability.Flow
	patterns []isolation.Pattern

	y      map[usability.Flow]map[isolation.PatternID]smt.Bool
	x      map[pairDev]smt.Bool
	l      map[linkDev]smt.Bool
	routes *topology.RouteTable // one entry per unordered host pair, asked as (low, high)
	// preset marks link-device placements the problem declares as already
	// deployed (Problem.Preplaced): their l variables are pinned true and
	// contribute nothing to the cost sum, so Design.Cost and MinCost
	// measure marginal cost over the existing deployment.
	preset map[linkDev]bool

	isoSum  *smt.Sum // Σ L_k · y  (network isolation numerator)
	lossSum *smt.Sum // Σ a_f(100−b_k) · y (usability loss numerator)
	costSum *smt.Sum // Σ C_d · l  (deployment cost)

	sumRanks int64 // Σ a_f over all flows
	maxIso   int64 // F · Lmax: the isolation normalization denominator

	// guards holds the threshold constraints of Eq. (9) created so far,
	// one assumption literal per (kind, value); guardKind is its inverse,
	// which maps an unsat core back to the thresholds it blames.
	guards    map[guardKey]smt.Bool
	guardKind map[smt.Bool]ThresholdKind

	theory   *flowTheory
	ftInputs [][]ftOption

	nb []byte // scratch for building variable names without fmt
}

// name finishes the scratch buffer into a variable name. Encoding
// allocates one y/x/l variable per flow-pattern, pair-device, and
// link-device combination; naming them through fmt.Sprintf was a
// measurable slice of probe time, so the names are built with strconv
// appends into a reused buffer instead.
func (s *Synthesizer) name() string { return string(s.nb) }

// ErrModelTooLarge re-exports the SAT core's clause-arena overflow
// sentinel: the encoded constraint system (or a learnt clause grown
// during search) would exceed the arena's 31-bit cref space. Callers
// classify it with errors.Is; the designed mitigation is topology
// decomposition, whose per-region models stay far below the limit.
var ErrModelTooLarge = sat.ErrModelTooLarge

// NewSynthesizer validates the problem and encodes the full constraint
// system Constr ≡ CR ∧ TC ∧ IIC ∧ UIC into the SMT solver: a Template
// given the problem's own thresholds.
func NewSynthesizer(p *Problem) (*Synthesizer, error) {
	t, err := NewTemplate(p)
	if err != nil {
		return nil, err
	}
	return t.Synthesizer(), nil
}

// Template is an encoded problem before any threshold exists in it:
// routes, flows, placements, policies and the flow theory (CR ∧ IIC ∧
// UIC) are in the solver, the three threshold guards of TC are not, and
// no search has run. That part is three quarters of an encode and does
// not depend on the thresholds, so everything that needs several
// synthesizers over one problem family — a portfolio's raced workers, a
// what-if session's per-query extractors — encodes one Template and
// takes a Clone per synthesizer.
type Template struct {
	syn *Synthesizer
}

// NewTemplate validates the problem and encodes its threshold-independent
// part.
func NewTemplate(p *Problem) (retT *Template, retErr error) {
	// Encode-time arena overflow (a monolithic encode too big for the
	// 31-bit cref space) surfaces as a typed error, not a panic: the
	// model is simply too large, and the caller should be told so
	// before any search starts.
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && errors.Is(err, ErrModelTooLarge) {
				retT, retErr = nil, err
				return
			}
			panic(r)
		}
	}()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.normalized()
	s := &Synthesizer{
		prob:     p,
		sol:      smt.NewSolverWith(p.Options.Solver),
		flows:    sortedFlows(p.Flows),
		patterns: p.Catalog.Patterns(),
		y:        make(map[usability.Flow]map[isolation.PatternID]smt.Bool, len(p.Flows)),
		x:        make(map[pairDev]smt.Bool),
		l:        make(map[linkDev]smt.Bool),
		routes:   topology.NewRouteTable(p.Network, p.Options.Routes),
		isoSum:   &smt.Sum{},
		lossSum:  &smt.Sum{},
		costSum:  &smt.Sum{},
	}
	if len(p.Preplaced) > 0 {
		s.preset = make(map[linkDev]bool, len(p.Preplaced))
		for _, pp := range p.Preplaced {
			link, _ := p.Network.LinkBetween(pp.A, pp.B) // Validate checked existence
			s.preset[linkDev{link: link, dev: pp.Dev}] = true
		}
	}
	if err := s.encode(); err != nil {
		return nil, err
	}
	return &Template{syn: s}, nil
}

// Synthesizer gives the template the thresholds of the problem it was
// built on and returns it as that problem's synthesizer — what
// NewSynthesizer returns. It consumes the template: the encoded state
// is handed over, not copied, so the template must not be cloned
// afterwards.
func (t *Template) Synthesizer() *Synthesizer {
	s := t.syn
	t.syn = nil
	s.instantiate()
	return s
}

// Clone returns a synthesizer for the template's problem under the
// thresholds th whose solver is diversified by cfg, from a structural
// copy of the template instead of a second encode. Only the thresholds
// are the caller's: everything structural — and with it the meaning of
// every LinkID in the designs the clone produces — stays the template
// problem's, which Synthesizer.Problem reports. A caller that holds a
// different Problem value of the same family asks Fits before reading
// the clone's answers against its own.
//
// Everything search mutates is copied and re-bound to the clone's SAT
// core (sat.Solver.Clone, pb.Theory.Clone, the flow theory's per-flow
// state) and the guard tables start empty; everything fixed once
// encoded is shared: the variable maps, routes, flows, patterns, the
// three sums and the flow theory's inputs. Because the template holds
// no threshold guard and has never searched, the clone is state for
// state what NewSynthesizer of the same problem under th and cfg would
// have built — the same variable numbering, clause and watch order, PB
// constraint ids and root assignment — so it answers every query
// bit-identically, counters included. It fails with ErrModelTooLarge
// when the encoding does not fit cfg.ArenaCapWords.
func (t *Template) Clone(th Thresholds, cfg smt.SolverConfig) (*Synthesizer, error) {
	if t.syn == nil {
		panic("core: Clone of a Template already turned into its Synthesizer")
	}
	sol, err := t.syn.sol.Clone(cfg)
	if err != nil {
		return nil, err
	}
	c := *t.syn
	prob := *t.syn.prob
	prob.Thresholds = th
	prob.Options.Solver = cfg
	c.prob = &prob
	c.sol = sol
	c.nb = nil
	if c.theory != nil {
		c.theory = c.theory.clone(sol.SAT())
	}
	c.instantiate()
	return &c, nil
}

// Fits reports whether a Clone of the template stands for a fresh encode
// of p, given that p is of the template problem's family (equal up to
// thresholds and declaration order — spec.FamilyFingerprint, which the
// caller has compared). Within a family the encode still reads three
// things in declaration order: the links, whose order numbers the
// LinkIDs that routes, placement variables and Design.Placements are
// written in; each pattern's device list; and the policy rules. When
// they agree too (and Options.Verify, an execution knob the fingerprint
// leaves out, is the same), the template's encoding is p's, variable for
// variable, and a clone's designs read correctly against p.Network.
// Flows are sorted before they are encoded, and requirements, ranks and
// preplacements are looked up, never iterated.
func (t *Template) Fits(p *Problem) bool {
	tp := t.syn.prob
	if p.Options.withDefaults().Verify != tp.Options.Verify ||
		!slices.Equal(p.Network.Links(), tp.Network.Links()) {
		return false
	}
	if p.Catalog != tp.Catalog {
		pats := p.Catalog.Patterns()
		if len(pats) != len(t.syn.patterns) {
			return false
		}
		for i, pat := range pats {
			if !slices.Equal(pat.Devices, t.syn.patterns[i].Devices) {
				return false
			}
		}
	}
	var rules []policy.Rule
	if p.Policies != nil {
		rules = p.Policies.All()
	}
	return slices.Equal(rules, tp.Policies.All())
}

// CostUpperBound returns the trivially sufficient cost budget of the
// template's problem (see Synthesizer.CostUpperBound).
func (t *Template) CostUpperBound() int64 { return t.syn.CostUpperBound() }

// Stats returns the statistics of the encoding the template holds.
func (t *Template) Stats() ModelStats { return t.syn.Stats() }

// instantiate turns a pristine encoding into the synthesizer of s.prob:
// the problem's solver options, empty guard tables, and the guards of
// its own thresholds, so that they are numbered before those of any
// other query.
func (s *Synthesizer) instantiate() {
	if b := s.prob.Options.SolverBudget; b > 0 {
		s.sol.SetBudget(b)
	}
	s.sol.SetVerify(s.prob.Options.Verify)
	s.guards = make(map[guardKey]smt.Bool)
	s.guardKind = make(map[smt.Bool]ThresholdKind)
	s.assume(Query{Thresholds: s.prob.Thresholds})
}

// Problem returns the (normalized) problem the synthesizer was built on.
func (s *Synthesizer) Problem() *Problem { return s.prob }

// Verifying reports whether the solver self-check hooks are enabled
// (Options.Verify or CONFSYNTH_VERIFY).
func (s *Synthesizer) Verifying() bool { return s.sol.Verifying() }

// encode builds the threshold-independent part of the model.
func (s *Synthesizer) encode() error {
	if err := s.encodeRoutes(); err != nil {
		return err
	}
	s.encodeFlows()
	s.encodePlacements()
	if err := s.encodePolicies(); err != nil {
		return err
	}
	// The flow-assignment theory must see the final root-level state of
	// the y variables (policies may have pinned some), and must exist
	// before the threshold guards register with it.
	if !s.prob.Options.DisableFlowTheory {
		s.theory = newFlowTheory(s.sol.SAT(), s.ftInputs)
	}
	return nil
}

// encodeRoutes enumerates flow routes per unordered host pair (paper
// §III-C, "Modeling Flow Routes"). The synthesizer's route table is
// filled here and only read afterwards.
func (s *Synthesizer) encodeRoutes() error {
	for _, f := range s.flows {
		key := mkPair(f.Src, f.Dst)
		if _, err := s.routes.Routes(key.a, key.b); err != nil {
			return fmt.Errorf("routes for pair (%d,%d): %w", key.a, key.b, err)
		}
	}
	return nil
}

// pairRoutes returns the routes of a host pair encodeRoutes has
// enumerated; the only error the table reports is an unknown node, which
// encodeRoutes would have returned.
func (s *Synthesizer) pairRoutes(pair pairKey) []topology.Route {
	routes, _ := s.routes.Routes(pair.a, pair.b)
	return routes
}

// encodeFlows creates the isolation decision variables y^k_{i,j}(g),
// the invariant IIC1 (at most one pattern per flow), the connectivity
// requirements CR with IIC2 (a required flow cannot be denied), and the
// isolation/usability sums.
func (s *Synthesizer) encodeFlows() {
	cat := s.prob.Catalog
	maxScore := int64(cat.MaxScore())
	s.maxIso = int64(len(s.flows)) * maxScore

	for _, f := range s.flows {
		vars := make(map[isolation.PatternID]smt.Bool, len(s.patterns))
		group := make([]smt.Bool, 0, len(s.patterns))
		opts := make([]ftOption, 0, len(s.patterns))
		for _, p := range s.patterns {
			// y<k>[g<svc>(<src>-><dst>)], as Flow.String renders it.
			nb := append(s.nb[:0], 'y')
			nb = strconv.AppendInt(nb, int64(p.ID), 10)
			nb = append(nb, "[g"...)
			nb = strconv.AppendInt(nb, int64(f.Svc), 10)
			nb = append(nb, '(')
			nb = strconv.AppendInt(nb, int64(f.Src), 10)
			nb = append(nb, "->"...)
			nb = strconv.AppendInt(nb, int64(f.Dst), 10)
			nb = append(nb, ")]"...)
			s.nb = nb
			v := s.sol.NewBool(s.name())
			vars[p.ID] = v
			group = append(group, v)
			// Isolation contribution L_k · y.
			s.isoSum.Add(v, int64(cat.Score(p.ID)))
			// Usability loss contribution a_f · (100 − b_k) · y.
			loss := int64(100-cat.UsabilityPct(p.ID)) * int64(s.prob.Ranks.Rank(f))
			if loss > 0 {
				s.lossSum.Add(v, loss)
			}
			opts = append(opts, ftOption{
				lit:  v.Lit(),
				iso:  int64(cat.Score(p.ID)),
				loss: loss,
			})
		}
		s.ftInputs = append(s.ftInputs, opts)
		s.y[f] = vars
		// IIC1: at most one isolation pattern per flow (none selected
		// means "no isolation").
		s.sol.AddAtMostOne(group...)
		// CR + IIC2: a connectivity requirement forbids access deny.
		if s.prob.Requirements.Required(f) {
			if deny, ok := vars[isolation.AccessDeny]; ok {
				s.sol.AddUnit(deny.Not())
			}
		}
		s.sumRanks += int64(s.prob.Ranks.Rank(f))
	}
}

// encodePlacements creates the device-requirement variables x^d and link
// placement variables l^d, wiring paper Eq. (1) (pattern → devices) and
// Eq. (7) (device → a placement on every flow route), including the
// special IPSec tunnel-placement rule.
func (s *Synthesizer) encodePlacements() {
	// y^k → x^d for every device the pattern requires.
	for _, f := range s.flows {
		key := mkPair(f.Src, f.Dst)
		for _, p := range s.patterns {
			for _, d := range p.Devices {
				s.sol.AddImplies(s.y[f][p.ID], s.xVar(key, d))
			}
		}
	}
	// x^d → coverage of every route.
	pairs := make([]pairDev, 0, len(s.x))
	for pd := range s.x {
		pairs = append(pairs, pd)
	}
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a.pair != b.pair {
			if a.pair.a != b.pair.a {
				return a.pair.a < b.pair.a
			}
			return a.pair.b < b.pair.b
		}
		return a.dev < b.dev
	})
	for _, pd := range pairs {
		xv := s.x[pd]
		if pd.dev == isolation.IPSec {
			s.encodeTunnel(pd.pair, xv)
			continue
		}
		for _, route := range s.pairRoutes(pd.pair) {
			clause := make([]smt.Bool, 0, len(route)+1)
			clause = append(clause, xv.Not())
			for _, link := range route {
				clause = append(clause, s.lVar(link, pd.dev))
			}
			s.sol.AddClause(clause...)
		}
	}
}

// encodeTunnel models the paper's IPSec placement rule: two gateways per
// route, one within T links of the source and one within T links of the
// destination. On routes shorter than 2T links the head and tail windows
// overlap (see tunnelWindows), so a single gateway in the overlap can
// serve as both tunnel endpoints. The pruner (covered) and the simulator
// (netsim.checkTunnel) apply the same window semantics.
func (s *Synthesizer) encodeTunnel(pair pairKey, xv smt.Bool) {
	T := s.prob.Options.TunnelSlackHops
	for _, route := range s.pairRoutes(pair) {
		headW, tailW := tunnelWindows(route, T)
		head := make([]smt.Bool, 0, len(headW)+1)
		head = append(head, xv.Not())
		for _, link := range headW {
			head = append(head, s.lVar(link, isolation.IPSec))
		}
		s.sol.AddClause(head...)
		tail := make([]smt.Bool, 0, len(tailW)+1)
		tail = append(tail, xv.Not())
		for _, link := range tailW {
			tail = append(tail, s.lVar(link, isolation.IPSec))
		}
		s.sol.AddClause(tail...)
	}
}

// tunnelWindows returns the IPSec gateway windows of a route under
// tunnel slack T: the first and the last min(T, len(route)) links. On
// routes of at least 2T links the windows are disjoint, giving the
// paper's two-gateway rule; shorter routes yield overlapping windows, so
// a gateway within T links of both ends can terminate the tunnel at both
// ends. The SMT encoding (encodeTunnel) and the redundancy pruner
// (covered) must use the same windows, or pruning keeps or drops the
// wrong gateways.
func tunnelWindows(route topology.Route, T int) (head, tail []topology.LinkID) {
	w := T
	if len(route) < w {
		w = len(route)
	}
	return route[:w], route[len(route)-w:]
}

func (s *Synthesizer) xVar(pair pairKey, d isolation.DeviceID) smt.Bool {
	key := pairDev{pair: pair, dev: d}
	if v, ok := s.x[key]; ok {
		return v
	}
	nb := append(s.nb[:0], 'x')
	nb = strconv.AppendInt(nb, int64(d), 10)
	nb = append(nb, '[')
	nb = strconv.AppendInt(nb, int64(pair.a), 10)
	nb = append(nb, ',')
	nb = strconv.AppendInt(nb, int64(pair.b), 10)
	nb = append(nb, ']')
	s.nb = nb
	v := s.sol.NewBool(s.name())
	s.x[key] = v
	return v
}

func (s *Synthesizer) lVar(link topology.LinkID, d isolation.DeviceID) smt.Bool {
	key := linkDev{link: link, dev: d}
	if v, ok := s.l[key]; ok {
		return v
	}
	nb := append(s.nb[:0], 'l')
	nb = strconv.AppendInt(nb, int64(d), 10)
	nb = append(nb, '[')
	nb = strconv.AppendInt(nb, int64(link), 10)
	nb = append(nb, ']')
	s.nb = nb
	v := s.sol.NewBool(s.name())
	s.l[key] = v
	if s.preset[key] {
		// Already deployed: pinned true and free, so the solver can rely
		// on it without spending budget.
		s.sol.AddUnit(v)
	} else {
		dev, _ := s.prob.Catalog.Device(d)
		s.costSum.Add(v, dev.Cost)
	}
	return v
}

// encodePolicies translates the user-defined constraints (UIC).
func (s *Synthesizer) encodePolicies() error {
	for _, r := range s.prob.Policies.All() {
		switch rule := r.(type) {
		case policy.ForbidPattern:
			for _, f := range s.flows {
				if rule.Svc != policy.AnyService && f.Svc != rule.Svc {
					continue
				}
				v, ok := s.y[f][rule.Pattern]
				if !ok {
					return fmt.Errorf("core: policy %q references unknown pattern %d", r, rule.Pattern)
				}
				s.sol.AddUnit(v.Not())
			}
		case policy.RequirePattern:
			for _, f := range s.flows {
				if rule.Svc != policy.AnyService && f.Svc != rule.Svc {
					continue
				}
				v, ok := s.y[f][rule.Pattern]
				if !ok {
					return fmt.Errorf("core: policy %q references unknown pattern %d", r, rule.Pattern)
				}
				s.sol.AddUnit(v)
			}
		case policy.PinFlow:
			fv, ok := s.y[rule.Flow]
			if !ok {
				return fmt.Errorf("core: policy %q references unknown flow %v", r, rule.Flow)
			}
			v, ok := fv[rule.Pattern]
			if !ok {
				return fmt.Errorf("core: policy %q references unknown pattern %d", r, rule.Pattern)
			}
			if rule.Negated {
				s.sol.AddUnit(v.Not())
			} else {
				s.sol.AddUnit(v)
			}
		case policy.Implication:
			fromVars, ok := s.y[rule.If]
			if !ok {
				return fmt.Errorf("core: policy %q references unknown flow %v", r, rule.If)
			}
			toVars, ok := s.y[rule.Then]
			if !ok {
				return fmt.Errorf("core: policy %q references unknown flow %v", r, rule.Then)
			}
			from, ok := fromVars[rule.IfPattern]
			if !ok {
				return fmt.Errorf("core: policy %q references unknown pattern %d", r, rule.IfPattern)
			}
			to, ok := toVars[rule.ThenPattern]
			if !ok {
				return fmt.Errorf("core: policy %q references unknown pattern %d", r, rule.ThenPattern)
			}
			if rule.ThenNegated {
				to = to.Not()
			}
			s.sol.AddImplies(from, to)
		default:
			return fmt.Errorf("core: unsupported policy rule %T", r)
		}
	}
	return nil
}

// guardKey names one threshold constraint: a kind held at a value.
type guardKey struct {
	kind ThresholdKind
	v    int64
}

// guardOf returns the guard literal that, when assumed, holds the
// threshold of the given kind at v or better: network isolation or
// usability ≥ v/10 on the 0–10 scale, or deployment cost ≤ v. Guards
// are only ever assumed, never asserted, which is what enables
// unsat-core analysis over exactly these constraints (paper Algorithm 1
// takes them as the soft assumptions) and lets one encoding answer every
// query. A guard is created on first use and kept.
func (s *Synthesizer) guardOf(kind ThresholdKind, v int64) smt.Bool {
	key := guardKey{kind, v}
	if g, ok := s.guards[key]; ok {
		return g
	}
	var g smt.Bool
	switch kind {
	case ThresholdIsolation:
		g = s.sol.NewBool(fmt.Sprintf("Th_I>=%d", v))
		// I = Σ L·y / (F·Lmax) ≥ v/100  ⇔  Σ L·y ≥ ⌈v·F·Lmax/100⌉.
		bound := ceilDiv(v*s.maxIso, 100)
		s.sol.AssertAtLeastIf(g, s.isoSum, bound)
		if s.theory != nil {
			s.theory.watchIsoGuard(g.Lit(), bound)
		}
	case ThresholdUsability:
		g = s.sol.NewBool(fmt.Sprintf("Th_U>=%d", v))
		// U = (100·Σa − loss)/(100·Σa) ≥ v/100  ⇔  loss ≤ (100−v)·Σa.
		bound := (100 - v) * s.sumRanks
		s.sol.AssertAtMostIf(g, s.lossSum, bound)
		if s.theory != nil {
			s.theory.watchLossGuard(g.Lit(), bound)
		}
	default:
		g = s.sol.NewBool(fmt.Sprintf("Th_C<=%d", v))
		s.sol.AssertAtMostIf(g, s.costSum, v)
	}
	s.guards[key] = g
	s.guardKind[g] = kind
	return g
}

func ceilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}

// ModelStats describes the size of the encoded model, used by the
// scalability and memory experiments (paper §V-B, Table VI).
type ModelStats struct {
	Flows         int
	HostPairs     int
	Routes        int
	Vars          int
	Clauses       int
	PBConstraints int
	// PBActive counts PB constraints still in the propagation occurrence
	// lists (dead optimization-probe constraints are deactivated).
	PBActive     int
	PBTerms      int
	Conflicts    int64
	Decisions    int64
	Propagations int64
	// Restarts counts solver restarts, split by schedule below.
	Restarts     int64
	LubyRestarts int64
	GeomRestarts int64
	// Interrupts counts checks abandoned by portfolio cancellation;
	// RandomDecisions counts diversified branching decisions.
	Interrupts      int64
	RandomDecisions int64
	// Inprocessing counters: clauses removed by forward subsumption,
	// literals removed by self-subsuming resolution, and learnt clauses
	// dropped by database reduction.
	Subsumed     int64
	Strengthened int64
	Reduced      int64
	// Clause-sharing counters (portfolio): imported clauses kept and
	// export candidates dropped on a full exchange buffer.
	SharedKept    int64
	SharedDropped int64
	// EstimatedBytes approximates the resident model size from structure
	// counts (the paper's Table VI reports MB against problem size).
	EstimatedBytes int64
}

// Add accumulates b's counters into s. The serving layer aggregates
// per-job model statistics into fleet totals this way (/statsz).
func (s *ModelStats) Add(b ModelStats) {
	s.Flows += b.Flows
	s.HostPairs += b.HostPairs
	s.Routes += b.Routes
	s.Vars += b.Vars
	s.Clauses += b.Clauses
	s.PBConstraints += b.PBConstraints
	s.PBActive += b.PBActive
	s.PBTerms += b.PBTerms
	s.Conflicts += b.Conflicts
	s.Decisions += b.Decisions
	s.Propagations += b.Propagations
	s.Restarts += b.Restarts
	s.LubyRestarts += b.LubyRestarts
	s.GeomRestarts += b.GeomRestarts
	s.Interrupts += b.Interrupts
	s.RandomDecisions += b.RandomDecisions
	s.Subsumed += b.Subsumed
	s.Strengthened += b.Strengthened
	s.Reduced += b.Reduced
	s.SharedKept += b.SharedKept
	s.SharedDropped += b.SharedDropped
	s.EstimatedBytes += b.EstimatedBytes
}

// AddSearch accumulates only b's search counters — the work a solver
// did, as opposed to the shape of the model it did it on — into s. This
// is how counters of several solvers over one encoding (a portfolio's
// workers, a session's per-query extractors) are summed.
func (s *ModelStats) AddSearch(b ModelStats) { s.addSearch(b, 1) }

// Since returns s with its search counters reduced by base's: the work
// done since base was snapshotted from the same solver, with the model
// shape reported as is.
func (s ModelStats) Since(base ModelStats) ModelStats {
	s.addSearch(base, -1)
	return s
}

func (s *ModelStats) addSearch(b ModelStats, sign int64) {
	s.Conflicts += sign * b.Conflicts
	s.Decisions += sign * b.Decisions
	s.Propagations += sign * b.Propagations
	s.Restarts += sign * b.Restarts
	s.LubyRestarts += sign * b.LubyRestarts
	s.GeomRestarts += sign * b.GeomRestarts
	s.Interrupts += sign * b.Interrupts
	s.RandomDecisions += sign * b.RandomDecisions
	s.Subsumed += sign * b.Subsumed
	s.Strengthened += sign * b.Strengthened
	s.Reduced += sign * b.Reduced
	s.SharedKept += sign * b.SharedKept
	s.SharedDropped += sign * b.SharedDropped
}

// Stats returns current model statistics.
func (s *Synthesizer) Stats() ModelStats {
	st := s.sol.Stats()
	pairs, routes := s.routes.Size()
	pbTerms := s.isoSum.Len() + s.lossSum.Len() + s.costSum.Len()
	return ModelStats{
		Flows:           len(s.flows),
		HostPairs:       pairs,
		Routes:          routes,
		Vars:            st.Vars,
		Clauses:         st.Clauses + st.Learnts,
		PBConstraints:   st.PBConstraints,
		PBActive:        st.PBActive,
		PBTerms:         pbTerms,
		Conflicts:       st.Conflicts,
		Decisions:       st.Decisions,
		Propagations:    st.Propagations,
		Restarts:        st.Restarts,
		LubyRestarts:    st.LubyRestarts,
		GeomRestarts:    st.GeomRestarts,
		Interrupts:      st.Interrupts,
		RandomDecisions: st.RandomDecisions,
		Subsumed:        st.Subsumed,
		Strengthened:    st.Strengthened,
		Reduced:         st.Reduced,
		SharedKept:      st.SharedKept,
		SharedDropped:   st.SharedDropped,
		EstimatedBytes: int64(st.Vars)*64 +
			int64(st.Clauses+st.Learnts)*96 +
			int64(pbTerms)*24,
	}
}
