package cluster

import (
	"sort"
	"strings"
)

// replicationFactor is how many ring successors each node ships its WAL
// to. Two followers with independent ack cursors tolerate two
// simultaneous failures: the origin and one follower can die together
// and the surviving follower still holds the journal shadow.
const replicationFactor = 2

// view is one generation of cluster membership: the member set (node ID
// → base URL, including self) versioned by a monotonically increasing
// epoch. Every join and every confirmed death produces a new view with
// epoch+1; views are immutable once built and exchanged wholesale on
// heartbeats, so any two nodes holding the same epoch and canon hold
// the same membership.
type view struct {
	epoch   uint64
	members map[string]string
}

func newView(epoch uint64, members map[string]string) *view {
	m := make(map[string]string, len(members))
	for id, url := range members {
		m[id] = strings.TrimRight(url, "/")
	}
	return &view{epoch: epoch, members: m}
}

// with derives the epoch+1 view that admits id at url.
func (v *view) with(id, url string) *view {
	m := make(map[string]string, len(v.members)+1)
	for k, u := range v.members {
		m[k] = u
	}
	m[id] = strings.TrimRight(url, "/")
	return &view{epoch: v.epoch + 1, members: m}
}

// without derives the epoch+1 view that removes id (confirmed death).
func (v *view) without(id string) *view {
	m := make(map[string]string, len(v.members))
	for k, u := range v.members {
		if k != id {
			m[k] = u
		}
	}
	return &view{epoch: v.epoch + 1, members: m}
}

// ids returns the member IDs, sorted.
func (v *view) ids() []string {
	out := make([]string, 0, len(v.members))
	for id := range v.members {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// canon is the view's canonical identity string, used to break ties
// between divergent views minted at the same epoch (a join and a death
// proposed concurrently by different nodes). Both sides compare the
// same strings, so they agree on the winner; the losing event's node
// state self-heals — a lost death re-fires after the next DeadAfter
// missed beats, a lost join re-runs the handshake when the joiner sees
// itself excluded.
func (v *view) canon() string {
	parts := make([]string, 0, len(v.members))
	for id, url := range v.members {
		parts = append(parts, id+"="+url)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// supersedes reports whether v should replace cur: a higher epoch
// always wins, and between equal epochs the lexicographically smaller
// canon wins (an arbitrary but shared total order).
func (v *view) supersedes(cur *view) bool {
	if v.epoch != cur.epoch {
		return v.epoch > cur.epoch
	}
	vc, cc := v.canon(), cur.canon()
	return vc != cc && vc < cc
}

// successors returns the k distinct members after node in sorted member
// order — the node's WAL-shipping followers. Sorted order (rather than
// vnode order) is deterministic, forms a single permutation cycle, and
// is computable by any member, including for a node absent from the
// ring (the rejoin handshake derives a dead node's followers this way).
func (r *ring) successors(node string, k int) []string {
	if len(r.nodes) < 2 || k <= 0 {
		return nil
	}
	i := sort.SearchStrings(r.nodes, node)
	present := i < len(r.nodes) && r.nodes[i] == node
	if !present {
		// For a non-member, the successors are the first k members at or
		// after its sorted position.
		i = i % len(r.nodes)
	}
	out := make([]string, 0, k)
	for step := 0; len(out) < k; step++ {
		if present && step == 0 {
			continue
		}
		cand := r.nodes[(i+step)%len(r.nodes)]
		if cand == node {
			break // wrapped all the way around
		}
		if len(out) > 0 && cand == out[0] {
			break
		}
		out = append(out, cand)
	}
	return out
}
