package service

import (
	"errors"
	"fmt"

	"configsynth/internal/core"
	"configsynth/internal/topology"
)

// This file is the what-if entry point: POST /v1/whatif names a parent
// job and a delta, and the service re-solves the parent's problem with
// the delta applied. Threshold-only deltas stay in the parent's problem
// family, so the job can reuse a warm session from the registry —
// thresholds are assumption guards, never baked into the clause
// database, and the warm workers just re-solve under new assumptions.
// Link deltas change the encoding itself; they take the same endpoint
// but start a fresh session for the new family.

// ErrUnknownJob means the named parent job is not (or no longer) in the
// registry — it never existed, or retention already forgot it.
var ErrUnknownJob = errors.New("service: unknown job")

// LinkRef names a link by its endpoints, matching the wire form
// designs use for placements.
type LinkRef struct {
	A topology.NodeID `json:"a"`
	B topology.NodeID `json:"b"`
}

// WhatIfDelta is the modification a what-if query applies to its parent
// job's problem. Nil threshold fields keep the parent's value; link
// lists are applied to the parent's topology.
type WhatIfDelta struct {
	IsolationTenths *int      `json:"isolation_tenths,omitempty"`
	UsabilityTenths *int      `json:"usability_tenths,omitempty"`
	CostBudget      *int64    `json:"cost_budget,omitempty"`
	AddLinks        []LinkRef `json:"add_links,omitempty"`
	DropLinks       []LinkRef `json:"drop_links,omitempty"`
}

// empty reports whether the delta changes nothing.
func (d WhatIfDelta) empty() bool {
	return d.IsolationTenths == nil && d.UsabilityTenths == nil && d.CostBudget == nil &&
		len(d.AddLinks) == 0 && len(d.DropLinks) == 0
}

// WhatIf re-solves the parent job's problem with delta applied. The
// derived job goes through the ordinary Submit path — same fingerprint
// cache, same journal records, same queue — plus the whatif marker that
// routes it onto a warm session when one exists for the problem family.
// The result is therefore indistinguishable from (and cache-compatible
// with) submitting the modified problem to /v1/synthesize.
func (s *Service) WhatIf(parentID string, delta WhatIfDelta, opts SubmitOptions) (*Job, error) {
	parent, ok := s.Job(parentID)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, parentID)
	}
	base, err := parent.problem()
	if err != nil {
		return nil, &BadRequestError{Msg: fmt.Sprintf("parent job %s has no reconstructable problem", parentID)}
	}
	if delta.empty() {
		return nil, &BadRequestError{Msg: "empty delta: name at least one threshold or link change"}
	}
	prob, err := applyDelta(base, delta)
	if err != nil {
		return nil, err
	}
	if opts.Mode == "" {
		opts.Mode = parent.Mode
	}
	if opts.Mode == ModeDecomp {
		// Decomposed solves keep their warm state in the region cache, not
		// in a solver session; a what-if delta against a decomp parent
		// should be re-submitted as a fresh decomp job (whose unchanged
		// regions hit the cache) rather than routed onto a session.
		return nil, &BadRequestError{Msg: "mode decomp does not support what-if sessions; resubmit the modified problem with mode=decomp"}
	}
	opts.whatif = true
	if len(delta.AddLinks) == 0 && len(delta.DropLinks) == 0 {
		// Thresholds are all the family leaves out: the child's family
		// is the parent's, which is canonicalised once per parent.
		opts.family = parent.family(base)
	}
	return s.Submit(prob, opts)
}

// applyDelta derives the modified problem. The clone is shallow —
// topology, catalog, flows, and policies are read-only to solvers —
// except the network, which is rebuilt when links change.
func applyDelta(parent *core.Problem, d WhatIfDelta) (*core.Problem, error) {
	q := *parent
	if d.IsolationTenths != nil {
		q.Thresholds.IsolationTenths = *d.IsolationTenths
	}
	if d.UsabilityTenths != nil {
		q.Thresholds.UsabilityTenths = *d.UsabilityTenths
	}
	if d.CostBudget != nil {
		q.Thresholds.CostBudget = *d.CostBudget
	}
	if len(d.AddLinks) > 0 || len(d.DropLinks) > 0 {
		net, err := rebuildNetwork(parent.Network, d.AddLinks, d.DropLinks)
		if err != nil {
			return nil, err
		}
		q.Network = net
	}
	return &q, nil
}

// pairKey normalizes an endpoint pair for set membership.
func pairKey(a, b topology.NodeID) [2]topology.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]topology.NodeID{a, b}
}

// rebuildNetwork clones the topology with links dropped and added.
// Nodes are re-added in ID order, so every NodeID in flows, policies,
// and requirements stays valid; LinkIDs are reassigned, which is
// invisible outside the network (the wire forms and the canonical
// fingerprint key links by endpoints).
func rebuildNetwork(n *topology.Network, add, drop []LinkRef) (*topology.Network, error) {
	nn := topology.New()
	for id := 0; id < n.NumNodes(); id++ {
		node, _ := n.Node(topology.NodeID(id))
		switch node.Kind {
		case topology.Host:
			nn.AddHost(node.Name)
		case topology.Router:
			nn.AddRouter(node.Name)
		default:
			return nil, &BadRequestError{Msg: fmt.Sprintf("node %d has unknown kind", id)}
		}
	}
	dropSet := make(map[[2]topology.NodeID]bool, len(drop))
	for _, l := range drop {
		if _, ok := n.LinkBetween(l.A, l.B); !ok {
			return nil, &BadRequestError{Msg: fmt.Sprintf("drop_links: no link %d-%d in the parent topology", l.A, l.B)}
		}
		dropSet[pairKey(l.A, l.B)] = true
	}
	for _, l := range n.Links() {
		if dropSet[pairKey(l.A, l.B)] {
			continue
		}
		if _, err := nn.Connect(l.A, l.B); err != nil {
			return nil, &BadRequestError{Msg: fmt.Sprintf("rebuilding topology: %v", err)}
		}
	}
	for _, l := range add {
		if _, err := nn.Connect(l.A, l.B); err != nil {
			return nil, &BadRequestError{Msg: fmt.Sprintf("add_links: %v", err)}
		}
	}
	if err := nn.Validate(); err != nil {
		return nil, &BadRequestError{Msg: fmt.Sprintf("modified topology: %v", err)}
	}
	return nn, nil
}
