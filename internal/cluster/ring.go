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
//   - a node with a queue offloads its oldest queued jobs to a peer
//     whose queue is empty, each as the forwarded /v1/synthesize request
//     routing makes: the job stays claimed on its origin, which settles
//     it from the peer's answer, or solves it itself when none comes;
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
//   - a membership change re-shards the ring and streams nothing: a
//     cold miss asks the key's owner and then its owner under the ring
//     the change replaced, so a proven entry follows its key on demand,
//     one miss at a time, while queued and in-flight jobs finish on the
//     node that holds them.
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
// for the cluster sizes we run (TestRingVnodeDistributionNearUniform
// asserts this), while the ring stays small enough that building one
// per view change and a lookup per cold miss remain trivially cheap.
const vnodesPerNode = 256

type vnode struct {
	hash uint64
	node string
}

// ring is an immutable consistent-hash ring over one view's members;
// every view change builds a new one. Liveness is supplied per lookup,
// so a suspect or recovering node needs no rebuild.
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
