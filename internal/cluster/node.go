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
	// HeartbeatInterval paces liveness probes and the steal loop
	// (default 1s).
	HeartbeatInterval time.Duration
	// RPCTimeout bounds one control-plane call (heartbeat, cache fill,
	// steal, ship). It is deliberately decoupled from the heartbeat
	// interval: under full solver load a peer legitimately takes tens of
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
// membership views, ring routing, the join handshake, stealing, WAL
// replication to two successors, and the /cluster/v1 RPC surface.
type Node struct {
	cfg     Config
	svc     *service.Service
	selfURL string

	// mu guards the current view and the ring derived from it; both are
	// replaced wholesale on every membership change.
	mu   sync.Mutex
	view *view
	ring *ring

	mem *membership

	// rpcClient bounds control-plane calls (heartbeat, cache fill,
	// steal, ship) tightly; fwdClient carries forwarded synthesis
	// requests, which legitimately run as long as a solve.
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
	// on it, and a stolen job's wait is bounded by it.
	stopCtx context.Context
	stopAll context.CancelFunc
	wg      sync.WaitGroup

	forwarded    atomic.Int64
	forwardFails atomic.Int64
	fillAsked    atomic.Int64
	fillHits     atomic.Int64
	fillServed   atomic.Int64
	jobsStolen   atomic.Int64
	postsApplied atomic.Int64
	postsFailed  atomic.Int64
	takeovers    atomic.Int64
	versionSkew  atomic.Int64

	epochRejects  atomic.Int64
	joinsAdmitted atomic.Int64
	rejoins       atomic.Int64
	reshards      atomic.Int64
	rangesMoved   atomic.Int64
	entriesSent   atomic.Int64
	entriesRecv   atomic.Int64
	handoffSent   atomic.Int64
	handoffRecv   atomic.Int64
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
	n := &Node{
		cfg:       cfg,
		svc:       svc,
		selfURL:   v.members[cfg.NodeID],
		view:      v,
		ring:      newRing(v.ids()),
		mem:       newMembership(remotesOf(v, cfg.NodeID), cfg.SuspectAfter, cfg.DeadAfter),
		rpcClient: &http.Client{Timeout: cfg.RPCTimeout},
		fwdClient: &http.Client{},
	}
	n.stopCtx, n.stopAll = context.WithCancel(context.Background())

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
// handled as dead, WAL shipping retargeted at the new successors, stale
// shadows of origins this node no longer follows dropped, and the
// bounded handoff protocol streams moved-range state to its new owners.
// Views received on the wire (heartbeat responses and epoch-mismatch
// rejections both carry the responder's full view) come here too, and
// most do not supersede. A superseding view that excludes this node is
// never installed; it triggers the self-healing re-join handshake
// instead (the node was declared dead while alive, or lost a concurrent
// view merge).
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
	newR := n.ring
	n.mu.Unlock()

	n.mem.sync(remotesOf(v, n.cfg.NodeID))

	// This is the one place a death acts, whether this node's heartbeats
	// detected it (handleDeath proposed v) or a peer's death view got here
	// first: jobs delegated to the dead member return to the local pool,
	// and if this node was one of its two WAL followers — the pre-removal
	// ring names them — the quorum takeover decides who adopts its journal.
	for id := range oldView.members {
		if _, still := v.members[id]; still || id == n.cfg.NodeID {
			continue
		}
		if r := n.svc.ReenqueueStolen(id); r > 0 {
			n.cfg.Logf("cluster: reclaimed %d jobs delegated to dead peer %s", r, id)
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
	moved := movedRanges(oldRing, newR)
	if len(moved) > 0 {
		n.reshards.Add(1)
		n.rangesMoved.Add(int64(len(moved)))
		n.goAsync(func() { n.handoff(moved, v) })
	}
	n.cfg.Logf("cluster: view epoch %d installed (%s): members=%v, %d ranges moved, successors=%v",
		v.epoch, why, v.ids(), len(moved), newR.successors(n.cfg.NodeID, replicationFactor))
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
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
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

// Start launches the heartbeat, steal, and WAL-shipping loops.
func (n *Node) Start() {
	n.loop(n.cfg.HeartbeatInterval, n.heartbeatAll)
	n.loop(n.cfg.HeartbeatInterval, n.stealOnce)
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
			n.installView(newView(resp.Epoch, resp.Members), "admitted via "+seed)
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
// exchanging cache fills or stolen jobs across fingerprint formats
// would silently mis-route every key.
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

// handoff streams moved-range state to the new owners after a
// re-shard: proven cache entries for the fingerprint ranges this node
// lost, plus its queued jobs in those ranges (delegated, so completions
// post back here and the jobs stay registered under their origin).
// In-flight jobs are untouched — they finish where they run.
func (n *Node) handoff(moved []keyRange, v *view) {
	byTarget := map[string][]keyRange{}
	for _, kr := range moved {
		if kr.from != n.cfg.NodeID || kr.to == n.cfg.NodeID {
			continue
		}
		if _, member := v.members[kr.to]; !member {
			continue
		}
		byTarget[kr.to] = append(byTarget[kr.to], kr)
	}
	for target, ranges := range byTarget {
		n.handoffTo(target, ranges)
	}
}

const (
	// handoffChunk bounds cache entries per handoff RPC.
	handoffChunk = 32
	// handoffJobBatch caps queued jobs delegated to one new owner per
	// re-shard; cache entries are unbounded but chunked.
	handoffJobBatch = 16
)

func (n *Node) handoffTo(target string, ranges []keyRange) {
	match := func(fp string) bool {
		h := hash64(fp)
		for _, kr := range ranges {
			if kr.contains(h) {
				return true
			}
		}
		return false
	}
	var entries []handoffEntry
	n.svc.CacheEach(func(fp string, mode service.Mode, res *service.Result) {
		if match(fp) {
			entries = append(entries, handoffEntry{Fingerprint: fp, Mode: mode, Result: res})
		}
	})
	jobs := n.svc.DelegateMatching(target, handoffJobBatch, match)
	if len(entries) == 0 && len(jobs) == 0 {
		return
	}
	sentJobs := false
	for len(entries) > 0 || !sentJobs {
		chunk := entries
		if len(chunk) > handoffChunk {
			chunk = chunk[:handoffChunk]
		}
		req := handoffRequest{From: n.cfg.NodeID, Epoch: n.epoch(), Entries: chunk}
		if !sentJobs {
			req.Jobs = jobs
		}
		if !n.postHandoff(target, req) {
			if !sentJobs && len(jobs) > 0 {
				// The new owner never accepted the delegated jobs:
				// reclaim them so they run here instead of stalling to
				// their deadlines.
				n.svc.ReenqueueStolen(target)
			}
			n.cfg.Logf("cluster: handoff to %s failed; %d entries not moved", target, len(entries))
			return
		}
		if !sentJobs {
			sentJobs = true
			n.handoffSent.Add(int64(len(jobs)))
		}
		n.entriesSent.Add(int64(len(chunk)))
		entries = entries[len(chunk):]
	}
	n.cfg.Logf("cluster: handed off moved ranges to %s", target)
}

// postHandoff delivers one handoff chunk with brief retries (the target
// may lag one heartbeat behind on the new epoch).
func (n *Node) postHandoff(target string, req handoffRequest) bool {
	var resp handoffResponse
	return n.retry(3, func() error {
		return n.call(n.stopCtx, http.MethodPost, n.mem.url(target)+"/cluster/v1/handoff", req, &resp)
	}) == nil
}

// peerFill is the service's cold-miss hook: ask the ring owner of the
// fingerprint for an already-proven result before solving locally.
func (n *Node) peerFill(ctx context.Context, fp string, mode service.Mode) (*service.Result, bool) {
	owner := n.curRing().owner(fp, n.mem.alive)
	if owner == "" || owner == n.cfg.NodeID {
		return nil, false
	}
	n.fillAsked.Add(1)
	url := fmt.Sprintf("%s/cluster/v1/cache?fp=%s&mode=%s&v=%d&epoch=%d",
		n.mem.url(owner), fp, mode, spec.FingerprintVersion, n.epoch())
	cctx, cancel := context.WithTimeout(ctx, n.cfg.RPCTimeout)
	defer cancel()
	var res service.Result
	if err := n.call(cctx, http.MethodGet, url, nil, &res); err != nil {
		return nil, false
	}
	n.fillHits.Add(1)
	return &res, true
}

const (
	// stealBatch caps jobs taken from one peer per steal.
	stealBatch = 2
	// stealMinPeerQueue is the queue depth a peer must report before an
	// idle node steals from it.
	stealMinPeerQueue = 1
)

// stealOnce steals a batch of queued jobs from the most loaded alive
// peer when this node is idle, solves them locally, and posts the
// results back to the origin.
func (n *Node) stealOnce() {
	if n.svc.QueueLen() > 0 {
		return
	}
	victim, depth := "", stealMinPeerQueue-1
	for _, id := range n.mem.ids() {
		if d := n.mem.queueDepthOf(id); d > depth {
			victim, depth = id, d
		}
	}
	if victim == "" {
		return
	}
	var sr stealResponse
	err := n.call(n.stopCtx, http.MethodPost, n.mem.url(victim)+"/cluster/v1/steal",
		stealRequest{From: n.cfg.NodeID, Epoch: n.epoch(), Max: stealBatch}, &sr)
	if err != nil {
		return
	}
	for _, job := range sr.Jobs {
		n.jobsStolen.Add(1)
		job := job
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.runStolen(victim, job)
		}()
	}
}

// runStolen solves one stolen (or handed-off) job as an ordinary local
// submission (so it is cached, journaled, and counted here like any
// other job) and posts the outcome back to the origin, which still owns
// the job.
func (n *Node) runStolen(origin string, job service.StolenJob) {
	// A fingerprint mismatch means the two nodes disagree about
	// canonicalization: the steal is refused rather than mis-cached.
	src := &service.JobSource{Spec: job.Spec, Example: job.Example}
	prob, err := src.Problem(job.Fingerprint)
	if err != nil {
		n.postComplete(origin, completeRequest{ID: job.ID, Error: "stolen job: " + err.Error()})
		return
	}
	timeout := time.Duration(job.RemainingMS) * time.Millisecond
	if timeout <= 0 {
		// Already expired at hand-off: the origin's deadline watcher
		// cancels it there; nothing to do here.
		return
	}
	j, err := n.svc.Submit(prob, service.SubmitOptions{
		Mode:    job.Mode,
		Timeout: timeout,
		Source:  src,
	})
	if err != nil {
		n.postComplete(origin, completeRequest{ID: job.ID, Error: err.Error()})
		return
	}
	res, jerr := j.Wait(n.stopCtx)
	if jerr != nil {
		if errors.Is(jerr, context.Canceled) || errors.Is(jerr, context.DeadlineExceeded) {
			// The origin's own deadline watcher produces the identical
			// verdict; posting it would just race the watcher.
			return
		}
		n.postComplete(origin, completeRequest{ID: job.ID, Error: jerr.Error()})
		return
	}
	n.postComplete(origin, completeRequest{ID: job.ID, Result: res})
}

// postComplete delivers a stolen job's outcome to its origin, retrying
// briefly: the origin holding the job registered means a lost post
// costs a re-solve after its deadline, so delivery is worth a few
// attempts (epoch mismatches during churn heal within one heartbeat).
func (n *Node) postComplete(origin string, req completeRequest) {
	var cr completeResponse
	err := n.retry(5, func() error {
		req.Epoch = n.epoch()
		return n.call(n.stopCtx, http.MethodPost, n.mem.url(origin)+"/cluster/v1/complete", req, &cr)
	})
	switch {
	case err != nil:
		n.postsFailed.Add(1)
		n.cfg.Logf("cluster: failed to post completion of %s back to %s", req.ID, origin)
	case cr.Applied:
		n.postsApplied.Add(1)
	}
}
