package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	neturl "net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"configsynth/internal/service"
	"configsynth/internal/spec"
)

// Config tunes a cluster node. Zero values select the documented
// defaults.
type Config struct {
	// NodeID is this node's identity; it must appear in Peers.
	NodeID string
	// Peers maps every initially known member's node ID (including this
	// node's) to the base URL peers reach it at, e.g. "n1" →
	// "http://127.0.0.1:8081". This is the epoch-0 view; joins and
	// deaths evolve it from there.
	Peers map[string]string
	// HeartbeatInterval paces liveness probes and the offload check
	// (default 1s).
	HeartbeatInterval time.Duration
	// RPCTimeout bounds one control-plane call (heartbeat, cache fill,
	// ship). It is deliberately decoupled from the heartbeat interval:
	// under full solver load a peer legitimately takes tens of
	// milliseconds to answer, so a timeout equal to a short interval
	// would misread CPU saturation as death. Default
	// 2×HeartbeatInterval, floored at 500ms.
	RPCTimeout time.Duration
	// SuspectAfter consecutive missed heartbeats drain a peer (default
	// 3); DeadAfter trigger takeover (default 6).
	SuspectAfter int
	DeadAfter    int
	// Logf receives cluster events (default log.Printf).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 2 * c.HeartbeatInterval
		if c.RPCTimeout < 500*time.Millisecond {
			c.RPCTimeout = 500 * time.Millisecond
		}
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter * 2
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Node glues one service instance into the cluster: epoch-versioned
// membership views, ring routing, the join handshake, offloads, WAL
// replication to two successors, and the /cluster/v1 RPC surface.
type Node struct {
	cfg     Config
	svc     *service.Service
	selfURL string

	// mu guards the current view, the ring derived from it and the ring
	// it replaced (nil until the first view change): all three are
	// replaced wholesale on every membership change.
	mu       sync.Mutex
	view     *view
	ring     *ring
	prevRing *ring

	mem *membership

	// rpcClient bounds control-plane calls (heartbeat, cache fill, ship)
	// tightly; fwdClient carries forwarded synthesis requests and
	// offloads, which legitimately run as long as a solve.
	rpcClient *http.Client
	fwdClient *http.Client

	ship    *shipper     // nil without a journal
	shadows *shadowStore // nil without a journal

	// takeoverMu serializes shadow adoption against the join
	// handshake's registered-ID collection, so a rejoining node never
	// sees a half-finished takeover's ID set.
	takeoverMu sync.Mutex
	// joinMu serializes admissions handled by this node.
	joinMu sync.Mutex
	// rejoining guards the self-healing re-join triggered when a view
	// that excludes this node is observed.
	rejoining atomic.Bool

	// stopCtx ends when Stop is called: every background loop selects
	// on it, and every offload in flight gives up with it.
	stopCtx context.Context
	stopAll context.CancelFunc
	wg      sync.WaitGroup

	forwarded    atomic.Int64
	forwardFails atomic.Int64
	fillAsked    atomic.Int64
	fillHits     atomic.Int64
	fillServed   atomic.Int64
	offloaded    atomic.Int64
	takeovers    atomic.Int64
	versionSkew  atomic.Int64

	epochRejects  atomic.Int64
	joinsAdmitted atomic.Int64
	rejoins       atomic.Int64
}

// New wires a node around svc. The service must have been opened with
// Config.NodeID equal to cfg.NodeID so job IDs carry the node prefix.
func New(svc *service.Service, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.NodeID == "" {
		return nil, errors.New("cluster: NodeID is required")
	}
	if _, ok := cfg.Peers[cfg.NodeID]; !ok {
		return nil, fmt.Errorf("cluster: NodeID %q not present in peer list", cfg.NodeID)
	}
	if svc.NodeID() != cfg.NodeID {
		return nil, fmt.Errorf("cluster: service NodeID %q != cluster NodeID %q", svc.NodeID(), cfg.NodeID)
	}
	v := newView(0, cfg.Peers)
	stopCtx, stopAll := context.WithCancel(context.Background())
	n := &Node{
		cfg:       cfg,
		svc:       svc,
		selfURL:   v.members[cfg.NodeID],
		view:      v,
		ring:      newRing(v.ids()),
		mem:       newMembership(stopCtx, remotesOf(v, cfg.NodeID), cfg.SuspectAfter, cfg.DeadAfter),
		rpcClient: &http.Client{Timeout: cfg.RPCTimeout},
		fwdClient: &http.Client{},
		stopCtx:   stopCtx,
		stopAll:   stopAll,
	}

	// Shipped peer journals are shadowed beside the local one; without a
	// journal there is no shipping and no takeover.
	if jl := svc.Journal(); jl != nil {
		st, err := newShadowStore(shadowDirFor(jl.Path()))
		if err != nil {
			return nil, err
		}
		n.shadows = st
		n.ship = newShipper(n, jl)
		n.ship.retarget(n.ring.successors(cfg.NodeID, replicationFactor))
		svc.SetJournalNotify(n.ship.wake)
	}
	svc.SetPeerFill(n.peerFill)
	svc.SetRouter(n.route)
	return n, nil
}

// remotesOf extracts a view's remote member map (everyone but self).
func remotesOf(v *view, self string) map[string]string {
	out := make(map[string]string, len(v.members))
	for id, url := range v.members {
		if id != self {
			out[id] = url
		}
	}
	return out
}

// currentView snapshots the installed view.
func (n *Node) currentView() *view {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view
}

// curRing snapshots the ring derived from the installed view.
func (n *Node) curRing() *ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring
}

// epoch is the installed view's cluster epoch, carried on every RPC.
func (n *Node) epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view.epoch
}

// installView adopts v if it supersedes the current view: the ring is
// rebuilt, membership tracking synced, every member the view drops
// handled as dead, WAL shipping retargeted at the new successors, and
// stale shadows of origins this node no longer follows dropped. The
// replaced ring is kept: peer fill asks a key's owner under it, which
// is how a proven entry follows a key the change moved. Views received
// on the wire (heartbeat responses and epoch-mismatch rejections both
// carry the responder's full view) come here too, and most do not
// supersede. A superseding view that excludes this node is never
// installed; it triggers the self-healing re-join handshake instead
// (the node was declared dead while alive, or lost a concurrent view
// merge).
func (n *Node) installView(v *view, why string) bool {
	n.mu.Lock()
	if !v.supersedes(n.view) {
		n.mu.Unlock()
		return false
	}
	if _, ok := v.members[n.cfg.NodeID]; !ok {
		n.mu.Unlock()
		n.triggerRejoin(v)
		return false
	}
	oldView := n.view
	oldRing := n.ring
	n.view = v
	n.ring = newRing(v.ids())
	n.prevRing = oldRing
	newR := n.ring
	n.mu.Unlock()

	n.mem.sync(remotesOf(v, n.cfg.NodeID))

	// This is the one place a death acts, whether this node's heartbeats
	// detected it (handleDeath proposed v) or a peer's death view got here
	// first: the sync above has ended the offloads in flight to the dead
	// member, and if this node was one of its two WAL followers — the
	// pre-removal ring names them — the quorum takeover decides who adopts
	// its journal.
	for id := range oldView.members {
		if _, still := v.members[id]; still || id == n.cfg.NodeID {
			continue
		}
		if succ := oldRing.successors(id, replicationFactor); n.shadows != nil && slices.Contains(succ, n.cfg.NodeID) {
			n.takeoverMu.Lock()
			n.runTakeover(id, succ)
			n.takeoverMu.Unlock()
		}
	}
	if n.ship != nil {
		n.ship.retarget(newR.successors(n.cfg.NodeID, replicationFactor))
	}
	if n.shadows != nil {
		for _, origin := range n.shadows.origins() {
			if _, member := v.members[origin]; !member {
				continue // a dead origin's shadow is settled by takeover, not here
			}
			if origin != n.cfg.NodeID && !slices.Contains(newR.successors(origin, replicationFactor), n.cfg.NodeID) {
				n.shadows.drop(origin)
			}
		}
	}
	n.cfg.Logf("cluster: view epoch %d installed (%s): members=%v, successors=%v",
		v.epoch, why, v.ids(), newR.successors(n.cfg.NodeID, replicationFactor))
	return true
}

// triggerRejoin re-runs the join handshake when the cluster's current
// view excludes this node: it was declared dead while alive (a
// partition healed) or a concurrent join/death merge dropped its
// admission. At most one re-join runs at a time.
func (n *Node) triggerRejoin(v *view) {
	if !n.rejoining.CompareAndSwap(false, true) {
		return
	}
	seeds := make([]string, 0, len(v.members))
	for _, url := range v.members {
		seeds = append(seeds, url)
	}
	sort.Strings(seeds)
	n.cfg.Logf("cluster: view epoch %d excludes this node; re-running the join handshake", v.epoch)
	n.goAsync(func() {
		defer n.rejoining.Store(false)
		// On stopCtx, so that Stop cuts short a handshake in flight.
		ctx, cancel := context.WithTimeout(n.stopCtx, 30*time.Second)
		defer cancel()
		adopted, err := n.Join(ctx, seeds)
		if err != nil {
			n.cfg.Logf("cluster: re-join failed: %v", err)
			return
		}
		if dropped := n.svc.DropSuperseded(adopted); dropped > 0 {
			n.cfg.Logf("cluster: re-join dropped %d superseded jobs", dropped)
		}
	})
}

// goAsync runs fn on a tracked goroutine unless the node is stopping.
func (n *Node) goAsync(fn func()) {
	select {
	case <-n.stopCtx.Done():
		return
	default:
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		fn()
	}()
}

// Start launches the heartbeat, offload, and WAL-shipping loops.
func (n *Node) Start() {
	n.loop(n.cfg.HeartbeatInterval, n.heartbeatAll)
	n.loop(n.cfg.HeartbeatInterval, n.offloadOnce)
	if n.ship != nil {
		n.wg.Add(1)
		go n.ship.run()
	}
	n.cfg.Logf("cluster: node %s up at epoch %d, %d peers, successors=%v",
		n.cfg.NodeID, n.epoch(), n.mem.size(), n.curRing().successors(n.cfg.NodeID, replicationFactor))
}

// Stop halts the background loops and unhooks the service callbacks.
func (n *Node) Stop() {
	n.stopAll()
	n.wg.Wait()
	n.svc.SetPeerFill(nil)
	n.svc.SetRouter(nil)
	n.svc.SetJournalNotify(nil)
	if n.shadows != nil {
		n.shadows.close()
	}
}

// loop runs fn on a ticker until Stop.
func (n *Node) loop(every time.Duration, fn func()) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-n.stopCtx.Done():
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// Join runs the join handshake against the seed URLs: this node
// presents its identity, fingerprint format version, and journal epoch;
// any member admits it by minting the epoch+1 view and returning every
// job ID the cluster holds — the jobs a stale local journal must not
// replay (the caller truncates them via service.DropSuperseded). A typed
// refusal (version skew, identity conflict) aborts immediately;
// transient failures rotate through the seeds with backoff.
func (n *Node) Join(ctx context.Context, seeds []string) ([]string, error) {
	req := joinRequest{
		Node:      n.cfg.NodeID,
		URL:       n.selfURL,
		FPVersion: int(spec.FingerprintVersion),
	}
	if jl := n.svc.Journal(); jl != nil {
		req.WALEpoch = jl.Epoch()
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		for _, seed := range seeds {
			seed = strings.TrimRight(strings.TrimSpace(seed), "/")
			if seed == "" || seed == n.selfURL {
				continue
			}
			var resp joinResponse
			if err := n.call(ctx, http.MethodPost, seed+"/cluster/v1/join", req, &resp); err != nil {
				lastErr = err
				continue
			}
			if !resp.Admitted {
				jerr := &JoinRefusedError{Reason: resp.Reason, Detail: resp.Detail}
				if jerr.Fatal() {
					return nil, jerr
				}
				lastErr = jerr
				continue
			}
			if v := newView(resp.Epoch, resp.Members); n.installView(v, "admitted via "+seed) {
				// The ring this node ran outside the cluster says nothing of
				// where entries are: before the admission the cluster ran
				// the admitted view without this node.
				n.mu.Lock()
				if n.view == v {
					n.prevRing = newRing(v.without(n.cfg.NodeID).ids())
				}
				n.mu.Unlock()
			}
			n.rejoins.Add(1)
			n.cfg.Logf("cluster: joined at epoch %d, %d job IDs adopted elsewhere", resp.Epoch, len(resp.AdoptedIDs))
			return resp.AdoptedIDs, nil
		}
		if attempt >= 7 {
			if lastErr == nil {
				lastErr = errors.New("no usable seed")
			}
			return nil, fmt.Errorf("cluster: join: no seed admitted this node: %w", lastErr)
		}
		backoff := 250 * time.Millisecond << uint(attempt)
		if backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("cluster: join: %w (last error: %v)", ctx.Err(), lastErr)
		case <-n.stopCtx.Done():
			return nil, errors.New("cluster: join: node stopped")
		case <-time.After(backoff):
		}
	}
}

// heartbeatAll probes every tracked peer once. Responses carry the
// peer's full cluster view — newer views are adopted on the spot, which
// is how epoch changes propagate in one interval. A peer answering with
// a different fingerprint format version is treated as unreachable:
// exchanging cache fills or offloads across fingerprint formats would
// silently mis-route every key.
func (n *Node) heartbeatAll() {
	for _, id := range n.mem.ids() {
		url := n.mem.url(id)
		if url == "" {
			continue
		}
		var hb heartbeatResponse
		err := n.call(n.stopCtx, http.MethodGet, fmt.Sprintf("%s/cluster/v1/heartbeat?from=%s&epoch=%d", url, n.cfg.NodeID, n.epoch()), nil, &hb)
		if err == nil && hb.FPVersion != int(spec.FingerprintVersion) {
			n.versionSkew.Add(1)
			n.cfg.Logf("cluster: peer %s runs fingerprint format v%d, want v%d; draining it",
				id, hb.FPVersion, spec.FingerprintVersion)
			err = fmt.Errorf("fingerprint version skew")
		}
		if err != nil {
			if n.mem.beatMissed(id) {
				n.handleDeath(id)
			}
			continue
		}
		if n.mem.beatOK(id, hb.QueueDepth) {
			n.cfg.Logf("cluster: peer %s answering again", id)
		}
		n.installView(newView(hb.Epoch, hb.Members), "heartbeat from "+id)
	}
}

// handleDeath acts on a peer this node's own heartbeats declared dead:
// it proposes the death view — members minus the corpse, epoch+1 — and
// installing that view does the rest.
func (n *Node) handleDeath(id string) {
	n.cfg.Logf("cluster: peer %s dead after %d missed heartbeats", id, n.cfg.DeadAfter)
	if cur := n.currentView(); cur.members[id] != "" {
		n.installView(cur.without(id), "death of "+id)
	}
}

// runTakeover decides, between the dead node's two followers, who
// adopts the shipped journal: both compare shadow record counts (the
// amount of acked, parseable journal each actually holds) and the one
// with more — successor order breaking ties — adopts; the other
// truncates its shadow. The comparison is symmetric, so both sides
// reach the same verdict independently and adoption happens exactly
// once. A follower that cannot reach its co-follower after retries
// adopts anyway: that is the two-simultaneous-failure case, where the
// co-follower died with the origin. The winner keeps its shadow, so a
// late co-follower still yields to it, and claims the records it
// adopts, so a second removal of the same origin adopts only records
// shipped since.
func (n *Node) runTakeover(id string, succ []string) {
	recs, rerr := n.shadows.records(id)
	mine := len(recs)
	other := ""
	myRank, otherRank := 0, 0
	for i, s := range succ {
		if s == n.cfg.NodeID {
			myRank = i
		} else {
			other, otherRank = s, i
		}
	}
	if other != "" && n.mem.state(other) != StateDead {
		theirs, ok := n.shadowStateOf(other, id)
		switch {
		case ok && (theirs > mine || (theirs == mine && otherRank < myRank)):
			n.cfg.Logf("cluster: yielding takeover of %s to %s (%d records acked there, %d here)",
				id, other, theirs, mine)
			n.shadows.drop(id)
			return
		case ok:
			n.cfg.Logf("cluster: winning takeover of %s over %s (%d records acked here, %d there)",
				id, other, mine, theirs)
		default:
			n.cfg.Logf("cluster: co-follower %s unreachable during takeover of %s; adopting %d records (two-failure path)",
				other, id, mine)
		}
	}
	if mine == 0 || !n.shadows.claim(id, mine) {
		if rerr != nil {
			n.cfg.Logf("cluster: no journal shadow for dead peer %s: %v", id, rerr)
		}
		return
	}
	rep := n.svc.Adopt(recs)
	n.takeovers.Add(1)
	n.cfg.Logf("cluster: took over %s: %d proven cached, %d jobs requeued, %d duplicates, %d failed",
		id, rep.Proven, rep.Requeued, rep.Duplicates, rep.Failed)
}

// shadowStateOf asks the co-follower how much of origin's journal it
// holds, retrying briefly — a transient miss here risks double
// adoption, so a few attempts are worth it before falling back to the
// two-failure path.
func (n *Node) shadowStateOf(follower, origin string) (int, bool) {
	url := fmt.Sprintf("%s/cluster/v1/shadowstate?origin=%s&epoch=%d",
		n.mem.url(follower), neturl.QueryEscape(origin), n.epoch())
	var ss shadowStateResponse
	err := n.retry(3, func() error { return n.call(n.stopCtx, http.MethodGet, url, nil, &ss) })
	return ss.Records, err == nil
}

// retry runs fn up to attempts times, half a heartbeat apart, and
// returns its last error; it gives up early when the node stops.
func (n *Node) retry(attempts int, fn func() error) error {
	for i := 1; ; i++ {
		err := fn()
		if err == nil || i == attempts {
			return err
		}
		select {
		case <-n.stopCtx.Done():
			return err
		case <-time.After(n.cfg.HeartbeatInterval / 2):
		}
	}
}

// peerFill is the service's cold-miss hook, and the one way a proven
// result moves between nodes: before solving locally, ask the ring
// owner of the fingerprint, then its owner under the ring the last view
// change replaced, which still holds what it proved before a join or a
// death moved the key. Self, a node already asked and a node outside
// the installed view are skipped — membership calls an untracked ID
// alive, so only the view rules out a dead previous owner — and a
// cluster whose view never changed asks once.
func (n *Node) peerFill(ctx context.Context, fp string, mode service.Mode) (*service.Result, bool) {
	n.mu.Lock()
	v, rings := n.view, []*ring{n.ring, n.prevRing}
	n.mu.Unlock()
	asked := ""
	for _, r := range rings {
		if r == nil {
			continue
		}
		owner := r.owner(fp, n.mem.alive)
		base := v.members[owner]
		if base == "" || owner == n.cfg.NodeID || owner == asked {
			continue
		}
		asked = owner
		n.fillAsked.Add(1)
		url := fmt.Sprintf("%s/cluster/v1/cache?fp=%s&mode=%s&v=%d&epoch=%d",
			base, fp, mode, spec.FingerprintVersion, v.epoch)
		cctx, cancel := context.WithTimeout(ctx, n.cfg.RPCTimeout)
		var res service.Result
		err := n.call(cctx, http.MethodGet, url, nil, &res)
		cancel()
		if err == nil {
			n.fillHits.Add(1)
			return &res, true
		}
	}
	return nil, false
}

// offloadBatch caps the jobs one offload check sends to a peer.
const offloadBatch = 2

// offloadOnce runs queued jobs on an idle peer: when this node has a
// queue and an alive peer's last heartbeat reported none, up to
// offloadBatch of its oldest queued jobs go through runJob here and
// solve there, through the peer's front door. The view dropping the
// peer, or Stop, ends an offload in flight, and the job solves here.
func (n *Node) offloadOnce() {
	if n.svc.QueueLen() == 0 {
		return
	}
	base, gone := n.mem.idle()
	if base == "" {
		return
	}
	n.svc.Offload(offloadBatch, func(ctx context.Context, src service.JobSource, fp string, mode service.Mode) (*service.Result, bool) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		defer context.AfterFunc(gone, cancel)()
		return n.offload(ctx, base, src, fp, mode)
	})
}
