package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"

	"configsynth/internal/isolation"
	"configsynth/internal/policy"
	"configsynth/internal/sat"
	"configsynth/internal/smt"
	"configsynth/internal/topology"
	"configsynth/internal/usability"
)

// Synthesizer holds the encoded synthesis model (paper Eq. 12) and
// answers satisfiability, optimization, and explanation queries against
// it incrementally.
type Synthesizer struct {
	prob     *Problem
	sol      *smt.Solver
	flows    []usability.Flow    // ascending (usability.SortedFlows)
	patterns []isolation.Pattern // ascending ID
	devices  []isolation.Device  // ascending ID
	pairs    []pairKey           // the unordered host pairs of the flows, ascending
	flowPair []int32             // flows[i]'s pair, as an index into pairs

	// The decision variables, in dense tables: y by flow·P + pattern
	// position, x by pair·D + device position, l by link·D + device
	// position (P patterns, D devices; positions are indexes into patterns
	// and devices). A slot whose variable does not exist — a device no
	// pattern uses, a link no route crosses — holds smt.NoBool, not the
	// zero smt.Bool, which is variable 0.
	y      []smt.Bool
	x      []smt.Bool
	l      []smt.Bool
	routes *topology.RouteTable // one entry per unordered host pair, asked as (low, high)
	// preset marks link-device placements the problem declares as already
	// deployed (Problem.Preplaced), indexed like l; nil when there are
	// none. Their l variables are pinned true and contribute nothing to
	// the cost sum, so Design.Cost and MinCost measure marginal cost over
	// the existing deployment.
	preset []bool

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
}

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
	return t.Synthesizer(p.Thresholds, p.Options.Solver)
}

// Template is an encoded problem before any threshold exists in it:
// routes, flows, placements, policies and the flow theory (CR ∧ IIC ∧
// UIC) are in the solver, the three threshold guards of TC are not, and
// no search has run. That part is three quarters of an encode and does
// not depend on the thresholds, so everything that needs several
// synthesizers over one problem family — a portfolio's raced workers, a
// what-if session's per-query extractors — encodes one Template and
// takes a Clone per synthesizer. A caller that needs no more than one
// spends the template itself (Synthesizer) and copies nothing.
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
		flows:    usability.SortedFlows(p.Flows),
		patterns: p.Catalog.Patterns(),
		devices:  p.Catalog.Devices(),
		routes:   topology.NewRouteTable(p.Network, p.Options.Routes),
		isoSum:   &smt.Sum{},
		lossSum:  &smt.Sum{},
		costSum:  &smt.Sum{},
	}
	if err := s.encode(); err != nil {
		return nil, err
	}
	return &Template{syn: s}, nil
}

// Synthesizer is Clone(th, cfg) without the copy: it returns the
// template itself as the synthesizer of its problem under th, its solver
// reconfigured by cfg (smt.Solver.Reconfigure), state for state what the
// clone would have been. It spends the template: the encoded state is
// handed over, so every later Synthesizer, Clone, CostUpperBound
// or Stats of the template panics. On Clone's error (the encoding does
// not fit cfg.ArenaCapWords) the template is left unspent.
func (t *Template) Synthesizer(th Thresholds, cfg smt.SolverConfig) (*Synthesizer, error) {
	s := t.pristine()
	if err := s.sol.Reconfigure(cfg); err != nil {
		return nil, err
	}
	t.syn = nil
	s.prob = s.prob.under(th, cfg)
	s.instantiate()
	return s, nil
}

// Clone returns a synthesizer for the template's problem under the
// thresholds th whose solver is diversified by cfg, from a structural
// copy of the template instead of a second encode. Only the thresholds
// are the caller's: everything structural — and with it the meaning of
// every LinkID in the designs the clone produces — stays the template
// problem's, which Synthesizer.Problem reports. Another Problem value of
// the same family (spec.FamilyFingerprint) reads the clone's designs as
// its own: it has the template problem's link set, and so its LinkIDs
// (topology.Network.Connect).
//
// Everything search mutates is copied and re-bound to the clone's SAT
// core (sat.Solver.Clone, pb.Theory.Clone, the flow theory's per-flow
// state) and the guard tables start empty; everything fixed once
// encoded is shared: the variable tables, routes, flows, patterns, the
// three sums and the flow theory's inputs. Because the template holds
// no threshold guard and has never searched, the clone is state for
// state what NewSynthesizer of the same problem under th and cfg would
// have built — the same variable numbering, clause and watch order, PB
// constraint ids and root assignment — so it answers every query
// bit-identically, counters included. It fails with ErrModelTooLarge
// when the encoding does not fit cfg.ArenaCapWords.
func (t *Template) Clone(th Thresholds, cfg smt.SolverConfig) (*Synthesizer, error) {
	return t.CloneInto(nil, th, cfg)
}

// CloneInto is Clone built in the memory of spare, a synthesizer the
// caller is done with — the last question's, of any template, even one
// cut short mid-search by an interrupt or a panic: what Clone copies
// goes into spare's buffers wherever they are large enough
// (smt.Solver.CloneInto). Only their capacity is read, never their
// contents, so the result is state for state what Clone returns. spare
// must not be used afterwards, and must come from Clone or CloneInto; a
// nil spare is Clone.
func (t *Template) CloneInto(spare *Synthesizer, th Thresholds, cfg smt.SolverConfig) (*Synthesizer, error) {
	if spare == nil {
		spare = &Synthesizer{}
	}
	sol, err := t.pristine().sol.CloneInto(spare.sol, cfg)
	if err != nil {
		return nil, err
	}
	c := *t.syn
	c.prob = c.prob.under(th, cfg)
	c.sol = sol
	if c.theory != nil {
		c.theory = c.theory.cloneInto(spare.theory, sol.SAT())
	}
	c.instantiate()
	return &c, nil
}

// pristine returns the template's encoding, which Synthesizer spends.
func (t *Template) pristine() *Synthesizer {
	if t.syn == nil {
		panic("core: use of a Template already spent by Synthesizer")
	}
	return t.syn
}

// under returns a copy of p with thresholds th and solver configuration
// cfg.
func (p *Problem) under(th Thresholds, cfg smt.SolverConfig) *Problem {
	q := *p
	q.Thresholds = th
	q.Options.Solver = cfg
	return &q
}

// CostUpperBound returns the trivially sufficient cost budget of the
// template's problem (see Synthesizer.CostUpperBound).
func (t *Template) CostUpperBound() int64 { return t.pristine().CostUpperBound() }

// Stats returns the statistics of the encoding the template holds.
func (t *Template) Stats() ModelStats { return t.pristine().Stats() }

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

// Digest returns the sha256, in hex, of the synthesizer's solver state
// (smt.Solver.Digest): its clause database, root assignment and PB
// store. Two synthesizers with equal digests and equal heuristics
// search identically. It is a debugging aid for tests that pin an
// encoding or compare two ways of building one; nothing here calls it.
func (s *Synthesizer) Digest() string {
	h := sha256.New()
	s.sol.Digest(h)
	return hex.EncodeToString(h.Sum(nil))
}

// Verifying reports whether the solver self-check hooks are enabled
// (Options.Verify or CONFSYNTH_VERIFY).
func (s *Synthesizer) Verifying() bool { return s.sol.Verifying() }

// encode builds the threshold-independent part of the model.
func (s *Synthesizer) encode() error {
	if err := s.encodeRoutes(); err != nil {
		return err
	}
	if err := s.reserveTables(); err != nil {
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
// §III-C, "Modeling Flow Routes") and numbers the pairs. The
// synthesizer's route table is filled here and only read afterwards.
func (s *Synthesizer) encodeRoutes() error {
	all := make([]pairKey, len(s.flows))
	for i, f := range s.flows {
		key := mkPair(f.Src, f.Dst)
		if _, err := s.routes.Routes(key.a, key.b); err != nil {
			return fmt.Errorf("routes for pair (%d,%d): %w", key.a, key.b, err)
		}
		all[i] = key
	}
	s.pairs = slices.Clone(all)
	slices.SortFunc(s.pairs, comparePairs)
	s.pairs = slices.Compact(s.pairs)
	s.flowPair = make([]int32, len(all))
	for i, key := range all {
		pi, _ := slices.BinarySearchFunc(s.pairs, key, comparePairs)
		s.flowPair[i] = int32(pi)
	}
	return nil
}

func comparePairs(p, q pairKey) int {
	if c := cmp.Compare(p.a, q.a); c != 0 {
		return c
	}
	return cmp.Compare(p.b, q.b)
}

// pairRoutes returns the routes of a host pair encodeRoutes has
// enumerated; the only error the table reports is an unknown node, which
// encodeRoutes would have returned.
func (s *Synthesizer) pairRoutes(pair pairKey) []topology.Route {
	routes, _ := s.routes.Routes(pair.a, pair.b)
	return routes
}

// reserve is what reserveTables hands its counts to; a test stubs it to
// check that the reservation is only a hint.
var reserve = (*smt.Solver).Reserve

// reserveTables sizes everything the encode fills from the counts that
// are known once the routes are: the variable tables, the solver
// (smt.Solver.Reserve) and the backing arrays of the three sums and the
// flow theory's options. The encode is a bulk load — tens of thousands
// of variables and clauses, nearly all of them the at-most-one and
// pattern→device binary clauses of the flows — and growing each array by
// doubling while it runs cost more than everything it computes. The
// counts are upper bounds that the stored formula misses only by the
// clauses dropped at the root (a pattern→device implication of a denied
// pattern a requirement has ruled out) and the placement variables of
// links no route crosses.
//
// An encoding that cannot fit the clause arena is refused here, before
// the first clause, with the error the overflowing allocation would
// raise: the at-most-one clauses alone — always stored, since a flow's y
// variables are fresh when its constraint is added — are a lower bound
// of the arena, so nothing that would have fitted is refused.
func (s *Synthesizer) reserveTables() error {
	F, P, D, L := len(s.flows), len(s.patterns), len(s.devices), s.prob.Network.NumLinks()
	amoVars, amoClauses := smt.AtMostOneSize(P)
	if need, limit := F*amoClauses*sat.ClauseWords(2), s.sol.SAT().ArenaLimit(); need > limit {
		return &sat.ArenaOverflowError{Need: need, Cap: limit}
	}

	used := make([]bool, D)          // devices some pattern requires
	nUsed, patDevs, lossy := 0, 0, 0 // their number; Σ over patterns of devices required; patterns that cost usability
	for _, p := range s.patterns {
		patDevs += len(p.Devices)
		if s.prob.Catalog.UsabilityPct(p.ID) < 100 {
			lossy++
		}
		for _, d := range p.Devices {
			if dp := s.devPos(d); !used[dp] {
				used[dp] = true
				nUsed++
			}
		}
	}
	// Coverage clauses ¬x ∨ l…: one per route and device, over the route's
	// links; two per route for IPSec, over its tunnel windows.
	T := s.prob.Options.TunnelSlackHops
	covClauses, covWords := 0, 0
	for _, pair := range s.pairs {
		for _, route := range s.pairRoutes(pair) {
			for dp, u := range used {
				switch {
				case !u:
				case s.devices[dp].ID == isolation.IPSec:
					covClauses += 2
					covWords += 2 * sat.ClauseWords(1+min(T, len(route)))
				default:
					covClauses++
					covWords += sat.ClauseWords(1 + len(route))
				}
			}
		}
	}
	implications := 0
	for _, r := range s.prob.Policies.All() {
		if _, ok := r.(policy.Implication); ok {
			implications++
		}
	}
	// The arena gets the headroom a Clone gives (sat.Solver.Clone), for
	// the first learnt clauses of a search on the template itself
	// (Template.Synthesizer).
	binary := F*(amoClauses+patDevs) + implications
	words := binary*sat.ClauseWords(2) + covWords
	reserve(s.sol,
		F*(P+amoVars)+len(s.pairs)*nUsed+L*nUsed,
		binary+covClauses,
		words+words/8)

	s.y = filled(F * P)
	s.x = filled(len(s.pairs) * D)
	s.l = filled(L * D)
	s.isoSum.Grow(F * P)
	s.lossSum.Grow(F * lossy)
	s.costSum.Grow(L * nUsed)
	s.ftInputs = make([][]ftOption, 0, F)
	if len(s.prob.Preplaced) > 0 {
		s.preset = make([]bool, L*D)
		for _, pp := range s.prob.Preplaced {
			link, _ := s.prob.Network.LinkBetween(pp.A, pp.B) // Validate checked existence
			s.preset[int(link)*D+s.devPos(pp.Dev)] = true
		}
	}
	return nil
}

// filled returns a variable table of n empty slots.
func filled(n int) []smt.Bool {
	t := make([]smt.Bool, n)
	for i := range t {
		t[i] = smt.NoBool
	}
	return t
}

// devPos returns the position of device d in s.devices. The catalog has a
// handful of devices, so a scan beats a map.
func (s *Synthesizer) devPos(d isolation.DeviceID) int {
	for i := range s.devices {
		if s.devices[i].ID == d {
			return i
		}
	}
	panic(fmt.Sprintf("core: device %d is not in the catalog", d))
}

// patternPos returns the position of pattern id in s.patterns, or -1.
func (s *Synthesizer) patternPos(id isolation.PatternID) int {
	for i := range s.patterns {
		if s.patterns[i].ID == id {
			return i
		}
	}
	return -1
}

// flowPos returns the position of f in s.flows, or -1.
func (s *Synthesizer) flowPos(f usability.Flow) int {
	i, ok := slices.BinarySearchFunc(s.flows, f, usability.CompareFlows)
	if !ok {
		return -1
	}
	return i
}

// encodeFlows creates the isolation decision variables y^k_{i,j}(g),
// the invariant IIC1 (at most one pattern per flow), the connectivity
// requirements CR with IIC2 (a required flow cannot be denied), and the
// isolation/usability sums.
func (s *Synthesizer) encodeFlows() {
	cat := s.prob.Catalog
	maxScore := int64(cat.MaxScore())
	s.maxIso = int64(len(s.flows)) * maxScore

	P := len(s.patterns)
	deny := s.patternPos(isolation.AccessDeny)
	scores, lossPct := make([]int64, P), make([]int64, P)
	for pi, p := range s.patterns {
		scores[pi] = int64(cat.Score(p.ID))
		lossPct[pi] = int64(100 - cat.UsabilityPct(p.ID))
	}
	opts := make([]ftOption, 0, len(s.flows)*P) // one backing array for every flow's options
	// s.flows is sorted, so the requirement flags are read in step.
	req := s.prob.Requirements.Walk()
	for fi, f := range s.flows {
		group := s.y[fi*P : (fi+1)*P]
		rank := int64(s.prob.Ranks.Rank(f))
		for pi := range s.patterns {
			v := s.sol.NewBool()
			group[pi] = v
			// Isolation contribution L_k · y.
			s.isoSum.Add(v, scores[pi])
			// Usability loss contribution a_f · (100 − b_k) · y.
			loss := lossPct[pi] * rank
			if loss > 0 {
				s.lossSum.Add(v, loss)
			}
			opts = append(opts, ftOption{lit: v.Lit(), iso: scores[pi], loss: loss})
		}
		s.ftInputs = append(s.ftInputs, opts[len(opts)-P:len(opts):len(opts)])
		// IIC1: at most one isolation pattern per flow (none selected
		// means "no isolation").
		s.sol.AddAtMostOne(group...)
		// CR + IIC2: a connectivity requirement forbids access deny.
		if deny >= 0 && req.Required(f) {
			s.sol.AddUnit(group[deny].Not())
		}
		s.sumRanks += rank
	}
}

// encodePlacements creates the device-requirement variables x^d and link
// placement variables l^d, wiring paper Eq. (1) (pattern → devices) and
// Eq. (7) (device → a placement on every flow route), including the
// special IPSec tunnel-placement rule.
func (s *Synthesizer) encodePlacements() {
	P, D := len(s.patterns), len(s.devices)
	// y^k → x^d for every device the pattern requires.
	for fi := range s.flows {
		pi0 := int(s.flowPair[fi])
		for pi, p := range s.patterns {
			for _, d := range p.Devices {
				s.sol.AddImplies(s.y[fi*P+pi], s.xVar(pi0, s.devPos(d)))
			}
		}
	}
	// x^d → coverage of every route, by pair and then device: the order of
	// the table.
	var clause []smt.Bool
	for i, xv := range s.x {
		if !xv.Valid() {
			continue
		}
		pair, dp := s.pairs[i/D], i%D
		if s.devices[dp].ID == isolation.IPSec {
			clause = s.encodeTunnel(pair, xv, clause)
			continue
		}
		for _, route := range s.pairRoutes(pair) {
			clause = append(clause[:0], xv.Not())
			for _, link := range route {
				clause = append(clause, s.lVar(link, dp))
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
// (netsim.checkTunnel) apply the same window semantics. clause is the
// caller's scratch, handed back.
func (s *Synthesizer) encodeTunnel(pair pairKey, xv smt.Bool, clause []smt.Bool) []smt.Bool {
	T := s.prob.Options.TunnelSlackHops
	ipsec := s.devPos(isolation.IPSec)
	for _, route := range s.pairRoutes(pair) {
		headW, tailW := tunnelWindows(route, T)
		for _, window := range [2][]topology.LinkID{headW, tailW} {
			clause = append(clause[:0], xv.Not())
			for _, link := range window {
				clause = append(clause, s.lVar(link, ipsec))
			}
			s.sol.AddClause(clause...)
		}
	}
	return clause
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

// xVar returns the device-requirement variable of the pair and device at
// the given positions, creating it on first use.
func (s *Synthesizer) xVar(pair, dev int) smt.Bool {
	slot := &s.x[pair*len(s.devices)+dev]
	if slot.Valid() {
		return *slot
	}
	*slot = s.sol.NewBool()
	return *slot
}

// lVar returns the placement variable of the link and the device at the
// given position, creating it on first use.
func (s *Synthesizer) lVar(link topology.LinkID, dev int) smt.Bool {
	i := int(link)*len(s.devices) + dev
	if s.l[i].Valid() {
		return s.l[i]
	}
	v := s.sol.NewBool()
	s.l[i] = v
	if s.isPreset(i) {
		// Already deployed: pinned true and free, so the solver can rely
		// on it without spending budget.
		s.sol.AddUnit(v)
	} else {
		s.costSum.Add(v, s.devices[dev].Cost)
	}
	return v
}

// encodePolicies translates the user-defined constraints (UIC).
func (s *Synthesizer) encodePolicies() error {
	for _, r := range s.prob.Policies.All() {
		// flowOf and varOf look up what the rule names: a flow's position,
		// and the y variable of the flow at a position under a pattern.
		flowOf := func(f usability.Flow) (int, error) {
			if fi := s.flowPos(f); fi >= 0 {
				return fi, nil
			}
			return 0, fmt.Errorf("core: policy %q references unknown flow %v", r, f)
		}
		varOf := func(fi int, id isolation.PatternID) (smt.Bool, error) {
			if pi := s.patternPos(id); pi >= 0 {
				return s.y[fi*len(s.patterns)+pi], nil
			}
			return smt.NoBool, fmt.Errorf("core: policy %q references unknown pattern %d", r, id)
		}
		// pinAll asserts the pattern's y, negated or not, on every flow of
		// the service.
		pinAll := func(svc usability.Service, id isolation.PatternID, negated bool) error {
			for fi, f := range s.flows {
				if svc != policy.AnyService && f.Svc != svc {
					continue
				}
				v, err := varOf(fi, id)
				if err != nil {
					return err
				}
				if negated {
					v = v.Not()
				}
				s.sol.AddUnit(v)
			}
			return nil
		}
		switch rule := r.(type) {
		case policy.ForbidPattern:
			if err := pinAll(rule.Svc, rule.Pattern, true); err != nil {
				return err
			}
		case policy.RequirePattern:
			if err := pinAll(rule.Svc, rule.Pattern, false); err != nil {
				return err
			}
		case policy.PinFlow:
			fi, err := flowOf(rule.Flow)
			if err != nil {
				return err
			}
			v, err := varOf(fi, rule.Pattern)
			if err != nil {
				return err
			}
			if rule.Negated {
				v = v.Not()
			}
			s.sol.AddUnit(v)
		case policy.Implication:
			fromFlow, err := flowOf(rule.If)
			if err != nil {
				return err
			}
			toFlow, err := flowOf(rule.Then)
			if err != nil {
				return err
			}
			from, err := varOf(fromFlow, rule.IfPattern)
			if err != nil {
				return err
			}
			to, err := varOf(toFlow, rule.ThenPattern)
			if err != nil {
				return err
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
	g := s.sol.NewBool()
	switch kind {
	case ThresholdIsolation:
		// I = Σ L·y / (F·Lmax) ≥ v/100  ⇔  Σ L·y ≥ ⌈v·F·Lmax/100⌉.
		bound := ceilDiv(v*s.maxIso, 100)
		s.sol.AssertAtLeastIf(g, s.isoSum, bound)
		if s.theory != nil {
			s.theory.watchIsoGuard(g.Lit(), bound)
		}
	case ThresholdUsability:
		// U = (100·Σa − loss)/(100·Σa) ≥ v/100  ⇔  loss ≤ (100−v)·Σa.
		bound := (100 - v) * s.sumRanks
		s.sol.AssertAtMostIf(g, s.lossSum, bound)
		if s.theory != nil {
			s.theory.watchLossGuard(g.Lit(), bound)
		}
	default:
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
// scalability and memory experiments (paper §V-B, Table VI), and the
// search its solvers did on it (sat.Counters).
type ModelStats struct {
	Flows         int
	HostPairs     int
	Routes        int
	Vars          int
	Clauses       int
	PBConstraints int
	PBTerms       int
	// EstimatedBytes approximates the resident model size from structure
	// counts (the paper's Table VI reports MB against problem size).
	EstimatedBytes int64
	sat.Counters
}

// Add accumulates b's shape and counters into s. The serving layer
// aggregates per-job model statistics into fleet totals this way
// (/statsz).
func (s *ModelStats) Add(b ModelStats) {
	s.Flows += b.Flows
	s.HostPairs += b.HostPairs
	s.Routes += b.Routes
	s.Vars += b.Vars
	s.Clauses += b.Clauses
	s.PBConstraints += b.PBConstraints
	s.PBTerms += b.PBTerms
	s.EstimatedBytes += b.EstimatedBytes
	s.Counters.Add(b.Counters)
}

// Stats returns current model statistics.
func (s *Synthesizer) Stats() ModelStats {
	st := s.sol.Stats()
	pairs, routes := s.routes.Size()
	pbTerms := s.isoSum.Len() + s.lossSum.Len() + s.costSum.Len()
	return ModelStats{
		Flows:         len(s.flows),
		HostPairs:     pairs,
		Routes:        routes,
		Vars:          st.Vars,
		Clauses:       st.Clauses + st.Learnts,
		PBConstraints: st.PBConstraints,
		PBTerms:       pbTerms,
		EstimatedBytes: int64(st.Vars)*64 +
			int64(st.Clauses+st.Learnts)*96 +
			int64(pbTerms)*24,
		Counters: st.Counters,
	}
}
