// Package cluster turns a set of confserved processes into one
// fingerprint-routed synthesis cluster:
//
//   - a consistent-hash ring maps every canonical problem fingerprint to
//     an owner node, so repeat submissions of the same problem land on
//     the node that already has the answer cached;
//   - the service reads, parses and fingerprints every synthesis
//     request itself and then asks the node, through the routing hook
//     New installs, whether it runs elsewhere: a request arriving at a
//     non-owner is forwarded to the owner (one hop, loop-guarded), and
//     a cold miss asks the owner's cache over RPC before solving
//     locally;
//   - idle nodes steal queued jobs from overloaded peers and post the
//     results back (delegation, not migration: the origin keeps the job
//     registered and its deadline still bounds it);
//   - every node streams its job journal to its two ring successors
//     (independent ack cursors), so when a node dies by SIGKILL the
//     followers run a quorum takeover — the one holding more acked
//     records adopts the shipped journal and re-runs exactly the jobs
//     that had been accepted but not finished, the other truncates its
//     shadow — and even two simultaneous deaths lose nothing;
//   - membership is an epoch-versioned view evolved from the initial
//     peer list: every admitted join and confirmed death mints the
//     epoch+1 view, heartbeats carry and propagate views, mutating RPCs
//     reject stale epochs, and a restarting node re-admits itself
//     through a join handshake that auto-truncates whatever its stale
//     journal would have double-replayed;
//   - a membership change re-shards the ring: moved fingerprint ranges
//     are computed exactly (set difference of the two rings) and the
//     old owner streams its proven cache entries and queued jobs for
//     those ranges to the new owner, while in-flight jobs finish where
//     they run and forward results.
//
// The layer is strictly additive: a node with no peers behaves exactly
// like a single confserved.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// vnodesPerNode is how many virtual points each node contributes to the
// ring. 256 keeps every node's ownership share within 20% of uniform
// for the cluster sizes we run (the re-sharding property tests assert
// this), while the ring stays small enough that lookups and the moved-
// range diff remain trivially cheap.
const vnodesPerNode = 256

type vnode struct {
	hash uint64
	node string
}

// ring is an immutable consistent-hash ring over the static member
// list. Liveness is supplied per lookup, so the ring itself never needs
// rebuilding when nodes fail or recover.
type ring struct {
	points []vnode  // sorted by hash
	nodes  []string // distinct members, sorted
}

func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

func newRing(nodes []string) *ring {
	uniq := map[string]bool{}
	for _, n := range nodes {
		uniq[n] = true
	}
	r := &ring{}
	for n := range uniq {
		r.nodes = append(r.nodes, n)
		for i := 0; i < vnodesPerNode; i++ {
			r.points = append(r.points, vnode{hash: hash64(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Strings(r.nodes)
	sort.Slice(r.points, func(i, k int) bool { return r.points[i].hash < r.points[k].hash })
	return r
}

// owner maps a key (a problem fingerprint) to the first alive node at
// or after the key's point on the ring. Dead and suspect nodes are
// skipped — their keys drain to the next member — and "" is returned
// only when no node is alive.
func (r *ring) owner(key string, alive func(string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := map[string]bool{}
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		if alive == nil || alive(p.node) {
			return p.node
		}
		if len(seen) == len(r.nodes) {
			break
		}
	}
	return ""
}
