package cluster

import (
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
	// node is drained — the ring stops routing new work to it and the
	// stealer ignores it — but no takeover runs yet: a GC pause or a
	// slow solve must not trigger journal adoption.
	StateSuspect PeerState = "suspect"
	// StateDead: DeadAfter consecutive heartbeats missed. The death
	// fires once and proposes the view without the peer; installing it
	// reclaims delegated jobs and runs the takeover.
	StateDead PeerState = "dead"
)

// peer is one remote member's tracked state.
type peer struct {
	id  string
	url string

	mu         sync.Mutex
	state      PeerState
	missed     int
	lastSeen   time.Time
	queueDepth int
	deadFired  bool
}

// membership tracks liveness for the current view's peers by
// heartbeating every peer on a fixed interval. The tracked set is
// dynamic: installing a new cluster view adds admitted members and
// removes departed ones via sync.
type membership struct {
	mu    sync.RWMutex
	peers map[string]*peer // excludes self

	suspectAfter int
	deadAfter    int

	// onDeath fires (from the heartbeat goroutine) the first time a
	// peer transitions to dead; onRejoin fires when a suspect or dead
	// peer answers again.
	onDeath  func(id string)
	onRejoin func(id string)
}

func newMembership(peers map[string]string, suspectAfter, deadAfter int) *membership {
	m := &membership{
		peers:        make(map[string]*peer, len(peers)),
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
	}
	for id, url := range peers {
		m.peers[id] = &peer{id: id, url: url, state: StateAlive, lastSeen: time.Now()}
	}
	return m
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
// DeadAfter beats, re-firing onDeath (deadFired resets with the
// re-arm), so a death lost to an equal-epoch view merge self-heals.
func (m *membership) sync(remotes map[string]string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id := range m.peers {
		if _, ok := remotes[id]; !ok {
			delete(m.peers, id)
		}
	}
	for id, url := range remotes {
		p, ok := m.peers[id]
		if !ok {
			m.peers[id] = &peer{id: id, url: url, state: StateAlive, lastSeen: time.Now()}
			continue
		}
		p.mu.Lock()
		p.url = url
		if p.state != StateAlive {
			p.state = StateAlive
			p.missed = 0
			p.deadFired = false
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

// beatOK records a successful heartbeat (or any successful RPC — proof
// of life is proof of life) carrying the peer's reported queue depth.
func (m *membership) beatOK(id string, queueDepth int) {
	p := m.lookup(id)
	if p == nil {
		return
	}
	p.mu.Lock()
	rejoined := p.state != StateAlive
	p.state = StateAlive
	p.missed = 0
	p.lastSeen = time.Now()
	p.queueDepth = queueDepth
	p.deadFired = false
	p.mu.Unlock()
	if rejoined && m.onRejoin != nil {
		m.onRejoin(id)
	}
}

// beatMissed records a failed heartbeat and advances the state machine;
// the dead transition fires onDeath exactly once per death.
func (m *membership) beatMissed(id string) {
	p := m.lookup(id)
	if p == nil {
		return
	}
	p.mu.Lock()
	p.missed++
	fireDeath := false
	switch {
	case p.missed >= m.deadAfter:
		p.state = StateDead
		if !p.deadFired {
			p.deadFired = true
			fireDeath = true
		}
	case p.missed >= m.suspectAfter:
		if p.state == StateAlive {
			p.state = StateSuspect
		}
	}
	p.mu.Unlock()
	if fireDeath && m.onDeath != nil {
		m.onDeath(id)
	}
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

// queueDepthOf returns the peer's last reported queue depth (stealing
// signal); -1 when unknown or not alive.
func (m *membership) queueDepthOf(id string) int {
	p := m.lookup(id)
	if p == nil {
		return -1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state != StateAlive {
		return -1
	}
	return p.queueDepth
}
