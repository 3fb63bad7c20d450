package cluster

import (
	"context"
	"sync"
	"time"
)

// PeerState is a peer's liveness verdict.
type PeerState string

// Liveness states. A peer is born alive (optimistic: routing to a
// briefly unreachable peer degrades to a local solve, which is cheaper
// than refusing work while the first heartbeat is in flight).
const (
	StateAlive PeerState = "alive"
	// StateSuspect: SuspectAfter consecutive heartbeats missed. The
	// node is drained — the ring stops routing new work to it and no
	// new job is offloaded to it — but no takeover runs yet: a GC pause
	// or a slow solve must not trigger journal adoption.
	StateSuspect PeerState = "suspect"
	// StateDead: DeadAfter consecutive heartbeats missed. The death
	// fires once and proposes the view without the peer; installing it
	// ends the offloads in flight to it and runs the takeover.
	StateDead PeerState = "dead"
)

// peer is one remote member's tracked state.
type peer struct {
	id  string
	url string
	// gone ends when an installed view drops the peer, or the node
	// stops: an offload in flight to it gives up, and its job solves at
	// home.
	gone  context.Context
	leave context.CancelFunc

	mu         sync.Mutex
	state      PeerState
	missed     int
	lastSeen   time.Time
	queueDepth int
}

// membership tracks liveness for the current view's peers by
// heartbeating every peer on a fixed interval. The tracked set is
// dynamic: installing a new cluster view adds admitted members and
// removes departed ones via sync.
type membership struct {
	ctx   context.Context // the node's: every peer's gone derives from it
	mu    sync.RWMutex
	peers map[string]*peer // excludes self

	suspectAfter int
	deadAfter    int
}

func newMembership(ctx context.Context, peers map[string]string, suspectAfter, deadAfter int) *membership {
	m := &membership{
		ctx:          ctx,
		peers:        make(map[string]*peer, len(peers)),
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
	}
	for id, url := range peers {
		m.peers[id] = m.newPeer(id, url)
	}
	return m
}

func (m *membership) newPeer(id, url string) *peer {
	p := &peer{id: id, url: url, state: StateAlive, lastSeen: time.Now()}
	p.gone, p.leave = context.WithCancel(m.ctx)
	return p
}

// lookup returns the tracked peer, or nil.
func (m *membership) lookup(id string) *peer {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.peers[id]
}

// ids snapshots the tracked peer IDs (the heartbeat loop's iteration
// set — a view install may mutate the map mid-sweep).
func (m *membership) ids() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.peers))
	for id := range m.peers {
		out = append(out, id)
	}
	return out
}

func (m *membership) size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.peers)
}

// sync reconciles the tracked set with a newly installed view's remote
// members: departed peers are dropped, admitted peers start tracking
// fresh, and a tracked peer the new view still vouches for while we
// hold it suspect/dead is re-armed to alive — the view change is
// membership information (an admission handshake or a peer's newer
// view), and a genuinely dead peer re-earns its verdict within
// DeadAfter beats, dying afresh, so a death lost to an equal-epoch view
// merge self-heals.
func (m *membership) sync(remotes map[string]string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, p := range m.peers {
		if _, ok := remotes[id]; !ok {
			p.leave()
			delete(m.peers, id)
		}
	}
	for id, url := range remotes {
		p, ok := m.peers[id]
		if !ok {
			m.peers[id] = m.newPeer(id, url)
			continue
		}
		p.mu.Lock()
		p.url = url
		if p.state != StateAlive {
			p.state = StateAlive
			p.missed = 0
		}
		p.mu.Unlock()
	}
}

// alive reports whether id may receive routed work. Self is always
// alive (the membership tracks remote peers only).
func (m *membership) alive(id string) bool {
	p := m.lookup(id)
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state == StateAlive
}

func (m *membership) state(id string) PeerState {
	p := m.lookup(id)
	if p == nil {
		return StateAlive
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

func (m *membership) url(id string) string {
	if p := m.lookup(id); p != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.url
	}
	return ""
}

// beatOK records a successful heartbeat carrying the peer's reported
// queue depth, and reports whether a suspect or dead peer has just come
// back. Only heartbeats count: other RPCs that succeed leave the peer's
// state alone.
func (m *membership) beatOK(id string, queueDepth int) (back bool) {
	p := m.lookup(id)
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	back = p.state != StateAlive
	p.state = StateAlive
	p.missed = 0
	p.lastSeen = time.Now()
	p.queueDepth = queueDepth
	return back
}

// beatMissed records a failed heartbeat, advances the state machine, and
// reports whether the peer has just died: true exactly once per death,
// on the miss that makes it dead.
func (m *membership) beatMissed(id string) (died bool) {
	p := m.lookup(id)
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.missed++
	switch {
	case p.missed >= m.deadAfter:
		died = p.state != StateDead
		p.state = StateDead
	case p.missed >= m.suspectAfter:
		if p.state == StateAlive {
			p.state = StateSuspect
		}
	}
	return died
}

// snapshot returns per-peer liveness for /statsz.
func (m *membership) snapshot() map[string]PeerInfo {
	m.mu.RLock()
	peers := make([]*peer, 0, len(m.peers))
	for _, p := range m.peers {
		peers = append(peers, p)
	}
	m.mu.RUnlock()
	out := make(map[string]PeerInfo, len(peers))
	for _, p := range peers {
		p.mu.Lock()
		out[p.id] = PeerInfo{
			URL:           p.url,
			State:         p.state,
			MissedBeats:   p.missed,
			LastSeenMSAgo: time.Since(p.lastSeen).Milliseconds(),
			QueueDepth:    p.queueDepth,
		}
		p.mu.Unlock()
	}
	return out
}

// idle picks the peer to offload to: an alive one whose last heartbeat
// reported an empty queue, the lowest such ID. It returns the base URL
// the peer answers at and its gone context; "" when there is none.
func (m *membership) idle() (url string, gone context.Context) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var pick *peer
	for _, p := range m.peers {
		p.mu.Lock()
		if p.state == StateAlive && p.queueDepth == 0 && (pick == nil || p.id < pick.id) {
			pick, url = p, p.url
		}
		p.mu.Unlock()
	}
	if pick == nil {
		return "", nil
	}
	return url, pick.gone
}
