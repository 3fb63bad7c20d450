// Package lru is the one cache behind the service's three stores of
// proven work: whole-problem results, warm what-if sessions and
// decomposed-region results. All three are keyed by a fingerprint
// string, bounded by an entry count, and report the same Stats.
package lru

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"
)

// Stats are a cache's counters, exported on /statsz.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Expired   int64 `json:"expired"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// ErrPanicked is what the waiters of a flight receive when the leader's
// compute panicked; the leader itself sees the panic.
var ErrPanicked = errors.New("lru: the compute this call was waiting on panicked")

// Cache is a mutex-guarded LRU from string keys to V. Inserting beyond
// the capacity evicts the least recently used entry, and a capacity of
// zero or less stores nothing. With a TTL, entries idle longer than it
// are dropped (and counted as expired) on the next Get, Take or Put.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	ttl      time.Duration
	now      func() time.Time
	order    *list.List // front = most recently used; values are *entry[V]
	index    map[string]*list.Element
	inflight map[string]*flight[V]
	stats    Stats
}

type entry[V any] struct {
	key  string
	val  V
	used time.Time
}

// flight is one compute in progress under Do. val and err are written
// before done is closed and read only after.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New builds a cache of at most capacity entries; ttl <= 0 disables
// idle expiry.
func New[V any](capacity int, ttl time.Duration) *Cache[V] {
	return &Cache[V]{
		capacity: capacity,
		ttl:      ttl,
		now:      time.Now,
		order:    list.New(),
		index:    make(map[string]*list.Element),
		inflight: make(map[string]*flight[V]),
	}
}

// prune drops entries idle past the TTL and returns the time it judged
// them at (the zero time without a TTL). Recency order is idle order,
// so it only ever looks at the back. Caller holds the mutex.
func (c *Cache[V]) prune() time.Time {
	if c.ttl <= 0 {
		return time.Time{}
	}
	now := c.now()
	for last := c.order.Back(); last != nil; last = c.order.Back() {
		if now.Sub(last.Value.(*entry[V]).used) <= c.ttl {
			break
		}
		c.remove(last)
		c.stats.Expired++
	}
	return now
}

func (c *Cache[V]) remove(el *list.Element) *entry[V] {
	e := c.order.Remove(el).(*entry[V])
	delete(c.index, e.key)
	return e
}

// touch counts a hit on el, makes it the most recently used entry and
// returns its value. Caller holds the mutex.
func (c *Cache[V]) touch(el *list.Element, now time.Time) V {
	e := el.Value.(*entry[V])
	e.used = now
	c.order.MoveToFront(el)
	c.stats.Hits++
	return e.val
}

// Get returns the value stored under key, counting a hit or a miss; a
// hit makes the entry the most recently used.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.prune()
	if el, found := c.index[key]; found {
		return c.touch(el, now), true
	}
	c.stats.Misses++
	return v, false
}

// Take is Get that also removes the entry: the caller owns the value
// exclusively until it Puts it back, and a second Take misses.
func (c *Cache[V]) Take(key string) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prune()
	if el, found := c.index[key]; found {
		c.stats.Hits++
		return c.remove(el).val, true
	}
	c.stats.Misses++
	return v, false
}

// Put stores v under key as the most recently used entry. Replacing an
// existing key is an update, not an eviction.
func (c *Cache[V]) Put(key string, v V) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.prune()
	if el, ok := c.index[key]; ok {
		c.remove(el)
	}
	for c.order.Len() >= c.capacity {
		c.remove(c.order.Back())
		c.stats.Evictions++
	}
	c.index[key] = c.order.PushFront(&entry[V]{key: key, val: v, used: now})
}

// Each calls fn for every entry, most recent first. The entries are
// snapshotted under the lock and fn runs outside it, so fn may re-enter
// the cache.
func (c *Cache[V]) Each(fn func(key string, v V)) {
	c.mu.Lock()
	entries := make([]*entry[V], 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		entries = append(entries, el.Value.(*entry[V]))
	}
	c.mu.Unlock()
	for _, e := range entries {
		fn(e.key, e.val)
	}
}

// Do returns the value stored under key, or runs compute — once, even
// under concurrent callers for the same key — and stores its value if
// compute succeeded and keep accepts it. hit reports that this call did
// no computing: the value was stored, or another caller's flight
// produced it (both count as hits; only a leader counts a miss).
//
// Waiters share whatever the leader got, including its error and a
// value keep rejects, but nothing unkept is stored, so a later call
// computes again. One error is the leader's alone: compute closes over
// the leader's context, so a flight that ends in context.Canceled or
// context.DeadlineExceeded says the leader gave up, not that the work
// failed, and a waiter whose own ctx is live goes round again — finds a
// stored value, joins the next flight, or leads. A waiter whose ctx ends
// first returns ctx.Err() instead of out-waiting the leader. If compute
// panics the flight is still released: waiters get ErrPanicked, the key
// is free for the next caller, and the panic continues up the leader's
// stack.
func (c *Cache[V]) Do(ctx context.Context, key string, compute func() (V, error), keep func(V) bool) (v V, hit bool, err error) {
	c.mu.Lock()
	for {
		now := c.prune()
		if el, ok := c.index[key]; ok {
			v = c.touch(el, now)
			c.mu.Unlock()
			return v, true, nil
		}
		fl, ok := c.inflight[key]
		if !ok {
			break
		}
		c.stats.Hits++
		c.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
		leaderGaveUp := errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded)
		if !leaderGaveUp || ctx.Err() != nil {
			return fl.val, true, fl.err
		}
		c.mu.Lock()
		c.stats.Hits-- // the flight gave this call nothing
	}
	fl := &flight[V]{done: make(chan struct{}), err: ErrPanicked}
	c.inflight[key] = fl
	c.stats.Misses++
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.err = compute()
	// Stored before the deferred release, so a caller arriving in between
	// finds the entry and does not compute again.
	if fl.err == nil && keep(fl.val) {
		c.Put(key, fl.val)
	}
	return fl.val, false, fl.err
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries, st.Capacity = c.order.Len(), c.capacity
	return st
}
