package service

import (
	"container/list"
	"sync"
	"time"

	"configsynth/internal/portfolio"
)

// SessionStats are the what-if session registry's counters, exported on
// /statsz.
type SessionStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Expired   int64 `json:"expired"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// sessionRegistry is a mutex-guarded LRU of warm what-if sessions keyed
// by family fingerprint (the problem with thresholds zeroed). Checkout
// REMOVES the entry: a checked-out session is owned exclusively by one
// job, so a concurrent what-if against the same family simply misses
// and solves on a fresh session — no blocking, no sharing. Checkin
// re-inserts the session after the job resets its per-query state.
// Entries idle past the TTL are pruned on every access: a session pins
// one pristine encoded template (every per-query extractor is a clone
// of it) and, from its first optimization on, the K warm workers cloned
// from it, too expensive to keep for a client that has moved on.
type sessionRegistry struct {
	mu    sync.Mutex
	cap   int
	ttl   time.Duration
	order *list.List // front = most recently used; values are *sessionEntry
	index map[string]*list.Element

	hits, misses, evictions, expired int64
}

type sessionEntry struct {
	family string
	solver *portfolio.Solver
	used   time.Time
}

func newSessionRegistry(capacity int, ttl time.Duration) *sessionRegistry {
	return &sessionRegistry{
		cap:   capacity,
		ttl:   ttl,
		order: list.New(),
		index: make(map[string]*list.Element, capacity),
	}
}

// prune drops entries idle past the TTL. Caller holds the mutex.
func (r *sessionRegistry) prune(now time.Time) {
	if r.ttl <= 0 {
		return
	}
	for {
		last := r.order.Back()
		if last == nil {
			break
		}
		e := last.Value.(*sessionEntry)
		if now.Sub(e.used) <= r.ttl {
			break
		}
		r.order.Remove(last)
		delete(r.index, e.family)
		r.expired++
	}
}

// checkout hands the family's warm session to the caller, removing it
// from the registry (exclusive ownership until checkin).
func (r *sessionRegistry) checkout(family string) (*portfolio.Solver, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prune(time.Now())
	el, ok := r.index[family]
	if !ok {
		r.misses++
		return nil, false
	}
	e := el.Value.(*sessionEntry)
	r.order.Remove(el)
	delete(r.index, e.family)
	r.hits++
	return e.solver, true
}

// checkin returns a session to the registry as the most recently used
// entry, evicting the LRU entry beyond capacity. If a concurrent job
// checked a session for the same family in first, the newer one wins —
// warm state is interchangeable, and one per family is enough.
func (r *sessionRegistry) checkin(family string, s *portfolio.Solver) {
	if r.cap <= 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prune(now)
	if el, ok := r.index[family]; ok {
		r.order.Remove(el)
		delete(r.index, family)
		r.evictions++
	}
	for r.order.Len() >= r.cap {
		last := r.order.Back()
		r.order.Remove(last)
		delete(r.index, last.Value.(*sessionEntry).family)
		r.evictions++
	}
	r.index[family] = r.order.PushFront(&sessionEntry{family: family, solver: s, used: now})
}

// stats snapshots the counters.
func (r *sessionRegistry) stats() SessionStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return SessionStats{
		Hits:      r.hits,
		Misses:    r.misses,
		Evictions: r.evictions,
		Expired:   r.expired,
		Entries:   r.order.Len(),
		Capacity:  r.cap,
	}
}
