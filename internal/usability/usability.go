// Package usability models the paper's business constraints on network
// usability (§III-B): service flows, connectivity requirements (the CR
// rules of Eq. 5), and flow demand ranks derived from partial orders.
package usability

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"configsynth/internal/order"
	"configsynth/internal/topology"
)

// Service identifies a network service (the paper encodes a service as an
// integer ID standing for a protocol-port pair).
type Service int32

// Flow is a directed service flow g(i, j): service Svc from host Src to
// host Dst.
type Flow struct {
	Src, Dst topology.NodeID
	Svc      Service
}

// CompareFlows orders flows by source, destination and service.
func CompareFlows(a, b Flow) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
		return c
	}
	return cmp.Compare(a.Svc, b.Svc)
}

// SortedFlows returns flows in CompareFlows order: flows itself when it
// is in that order already, otherwise a sorted copy.
func SortedFlows(flows []Flow) []Flow {
	if slices.IsSortedFunc(flows, CompareFlows) {
		return flows
	}
	out := slices.Clone(flows)
	sortFlows(out)
	return out
}

// sortFlows puts flows in CompareFlows order in place. It packs each
// flow's offsets from the per-field minima into one uint64, highest
// field in the highest bits, and radix-sorts the keys, with no
// comparator call; fields whose ranges do not fit 64 bits together fall
// back to CompareFlows.
func sortFlows(flows []Flow) {
	if len(flows) < 2 {
		return
	}
	lo, ws, wd, wv := keyWidths(flows)
	if ws+wd+wv > 64 {
		slices.SortFunc(flows, CompareFlows)
		return
	}
	keys := make([]uint64, len(flows))
	for i, f := range flows {
		keys[i] = uint64(uint32(f.Src)-uint32(lo.Src))<<(wd+wv) |
			uint64(uint32(f.Dst)-uint32(lo.Dst))<<wv |
			uint64(uint32(f.Svc)-uint32(lo.Svc))
	}
	radixSort(keys, ws+wd+wv)
	mask := func(w uint) uint64 { return 1<<w - 1 }
	for i, k := range keys {
		flows[i] = Flow{
			Src: lo.Src + topology.NodeID(uint32(k>>(wd+wv))),
			Dst: lo.Dst + topology.NodeID(uint32(k>>wv&mask(wd))),
			Svc: lo.Svc + Service(uint32(k&mask(wv))),
		}
	}
}

// keyWidths returns the per-field minima of flows and the bit width of
// each field's largest offset from its minimum. Offsets are taken in
// uint32, where a difference of two int32s never overflows.
func keyWidths(flows []Flow) (lo Flow, ws, wd, wv uint) {
	lo, hi := flows[0], flows[0]
	for _, f := range flows[1:] {
		lo = Flow{Src: min(lo.Src, f.Src), Dst: min(lo.Dst, f.Dst), Svc: min(lo.Svc, f.Svc)}
		hi = Flow{Src: max(hi.Src, f.Src), Dst: max(hi.Dst, f.Dst), Svc: max(hi.Svc, f.Svc)}
	}
	ws = uint(bits.Len32(uint32(hi.Src) - uint32(lo.Src)))
	wd = uint(bits.Len32(uint32(hi.Dst) - uint32(lo.Dst)))
	wv = uint(bits.Len32(uint32(hi.Svc) - uint32(lo.Svc)))
	return lo, ws, wd, wv
}

// radixBits is the widest digit radixSort sorts by in one pass.
const radixBits = 11

// radixSort sorts keys, each below 1<<width, by stable counting passes
// from the least significant digit up, through one buffer as long as
// keys. It makes ⌈width/radixBits⌉ passes, each over an equal share of
// the width: a 16-bit key takes two passes of 256 buckets.
func radixSort(keys []uint64, width uint) {
	if len(keys) < 2 || width == 0 {
		return
	}
	passes := (width + radixBits - 1) / radixBits
	digit := (width + passes - 1) / passes
	mask := uint64(1)<<digit - 1
	var count [1 << radixBits]int
	src, dst := keys, make([]uint64, len(keys))
	for shift := uint(0); shift < width; shift += digit {
		buckets := count[:mask+1]
		clear(buckets)
		for _, k := range src {
			buckets[k>>shift&mask]++
		}
		at := 0
		for d, c := range buckets {
			buckets[d] = at
			at += c
		}
		for _, k := range src {
			d := k >> shift & mask
			dst[buckets[d]] = k
			buckets[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// String renders the flow as g<svc>(src->dst).
func (f Flow) String() string {
	return fmt.Sprintf("g%d(%d->%d)", f.Svc, f.Src, f.Dst)
}

// Requirements is the set of connectivity requirements: flows that must
// be able to communicate (c = 1 in the paper's CR rules). Flows not
// present are unspecified (c = 0): they may be allowed or denied.
type Requirements struct {
	must map[Flow]bool
	// sorted is the set in CompareFlows order, built by the first Sorted
	// after a Require and shared by every reader until the next one.
	sorted atomic.Pointer[[]Flow]
}

// NewRequirements returns an empty requirement set.
func NewRequirements() *Requirements {
	return &Requirements{must: make(map[Flow]bool)}
}

// Require marks the flow as a connectivity requirement.
func (r *Requirements) Require(f Flow) {
	r.must[f] = true
	if r.sorted.Load() != nil {
		r.sorted.Store(nil)
	}
}

// Required reports whether the flow must be allowed.
func (r *Requirements) Required(f Flow) bool { return r.must[f] }

// Len returns the number of required flows.
func (r *Requirements) Len() int { return len(r.must) }

// All returns the required flows in CompareFlows order, in a slice of
// the caller's own.
func (r *Requirements) All() []Flow { return slices.Clone(r.Sorted()) }

// Sorted returns the required flows in CompareFlows order. The slice is
// shared: a caller reads it and never writes it. It is sorted once per
// set of requirements, not once per call, so every problem that shares
// r — the budget variants of one campus — reads one list.
func (r *Requirements) Sorted() []Flow {
	if out := r.sorted.Load(); out != nil {
		return *out
	}
	out := make([]Flow, 0, len(r.must))
	for f := range r.must {
		out = append(out, f)
	}
	sortFlows(out)
	r.sorted.Store(&out)
	return out
}

// Walk reads the requirement flags of flows visited in CompareFlows
// order, walking r's sorted list in step with them: O(flows +
// requirements) for the whole walk and no map probe. A nil r requires
// nothing.
func (r *Requirements) Walk() Walker {
	if r == nil {
		return Walker{}
	}
	return Walker{req: r.Sorted()}
}

// Walker is a walk over a sorted requirement list (Requirements.Walk).
type Walker struct {
	req []Flow
	k   int
}

// Required reports whether f is required. Successive calls must pass
// flows in CompareFlows order; a flow may repeat.
func (w *Walker) Required(f Flow) bool {
	for w.k < len(w.req) && CompareFlows(w.req[w.k], f) < 0 {
		w.k++
	}
	return w.k < len(w.req) && w.req[w.k] == f
}

// Ranks assigns each flow a demand rank a_{i,j}(g). If nothing is
// specified all flows rank equally (the paper's default). Service-level
// ranks apply to every flow of the service; flow-level ranks override
// them.
type Ranks struct {
	base       int
	perService map[Service]int
	perFlow    map[Flow]int
	maxRank    int
}

// NewRanks returns a rank table where every flow ranks 1.
func NewRanks() *Ranks {
	return &Ranks{
		base:       1,
		perService: make(map[Service]int),
		perFlow:    make(map[Flow]int),
		maxRank:    1,
	}
}

// RanksFromServiceOrder derives service-level ranks from a partial order
// over services, using the same minimal-solution model as the isolation
// scores.
func RanksFromServiceOrder(services []Service, constraints []order.Constraint[Service]) (*Ranks, error) {
	solved, err := order.Solve(services, constraints)
	if err != nil {
		return nil, fmt.Errorf("service ranks: %w", err)
	}
	r := NewRanks()
	for svc, rank := range solved {
		r.SetServiceRank(svc, rank)
	}
	return r, nil
}

// SetServiceRank assigns a rank to every flow of a service.
func (r *Ranks) SetServiceRank(svc Service, rank int) {
	if rank < 1 {
		rank = 1
	}
	r.perService[svc] = rank
	if rank > r.maxRank {
		r.maxRank = rank
	}
}

// SetFlowRank assigns a rank to one specific flow.
func (r *Ranks) SetFlowRank(f Flow, rank int) {
	if rank < 1 {
		rank = 1
	}
	r.perFlow[f] = rank
	if rank > r.maxRank {
		r.maxRank = rank
	}
}

// Rank returns the demand rank of a flow.
func (r *Ranks) Rank(f Flow) int {
	if v, ok := r.perFlow[f]; ok {
		return v
	}
	if v, ok := r.perService[f.Svc]; ok {
		return v
	}
	return r.base
}

// MaxRank returns the largest rank assigned, used for normalization.
func (r *Ranks) MaxRank() int { return r.maxRank }
