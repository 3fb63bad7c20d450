package service

// Cluster-facing hooks: everything internal/cluster needs from a
// Service. A cluster node wires a synthesis router, a peer-cache filler
// and a journal notifier after Open, offloads queued jobs to idle peers,
// and adopts a dead peer's shipped journal during takeover. None of this
// is reachable unless the cluster layer calls it, so single-node
// deployments are unaffected.

import (
	"context"
	"errors"
	"net/http"
	"slices"
	"sort"

	"configsynth/internal/wal"
)

// PeerFiller asks the cluster for an already-proven result for
// (fingerprint, mode) — typically from the ring owner's cache — before
// a cold job is solved locally. ok=false means miss or RPC failure;
// either way the job just solves locally.
type PeerFiller func(ctx context.Context, fingerprint string, mode Mode) (*Result, bool)

// SetPeerFill wires (or clears, with nil) the peer cache-fill hook.
func (s *Service) SetPeerFill(f PeerFiller) {
	s.peerMu.Lock()
	s.peerFill = f
	s.peerMu.Unlock()
}

// Router is consulted by POST /v1/synthesize once the request is read,
// parsed and fingerprinted, before it is submitted: it reports served
// when it has answered the request itself (a cluster node forwarding it
// to the ring owner of its fingerprint), and false to run it here.
type Router func(w http.ResponseWriter, r *http.Request, body []byte, fingerprint string) (served bool)

// SetRouter wires (or clears, with nil) the synthesis routing hook.
func (s *Service) SetRouter(f Router) {
	s.peerMu.Lock()
	s.router = f
	s.peerMu.Unlock()
}

// SetJournalNotify wires a callback fired after every successful
// journal append; the cluster WAL shipper uses it to push new records
// to the follower promptly. The callback must not block.
func (s *Service) SetJournalNotify(f func()) {
	s.peerMu.Lock()
	s.journalNotify = f
	s.peerMu.Unlock()
}

// Journal exposes the write-ahead log for cluster segment shipping;
// nil when no journal is configured.
func (s *Service) Journal() *wal.Log { return s.wal }

// NodeID returns this instance's cluster identity ("" single-node).
func (s *Service) NodeID() string { return s.cfg.NodeID }

// CacheLookup exposes the proven-result cache to the cluster RPC
// layer: peers ask the ring owner for (fingerprint, mode) before
// solving a cold miss locally. The returned result is a copy.
func (s *Service) CacheLookup(fingerprint string, mode Mode) (*Result, bool) {
	e, ok := s.cache.Get(cacheKey(fingerprint, mode))
	if !ok {
		return nil, false
	}
	cp := *e.res
	return &cp, true
}

// JobIDs lists every registered job ID (pending or retained terminal),
// sorted. The join handshake aggregates this across members to compute
// a rejoining node's truncation set: any ID the cluster holds must not
// be replayed from the joiner's stale journal.
func (s *Service) JobIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for id := range s.jobs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ErrSuperseded is the terminal outcome of a stale replayed job whose
// ID the cluster adopted while this node was down: the rejoin handshake
// drops the local copy so the ID has exactly one cluster-wide holder.
var ErrSuperseded = errors.New("service: job superseded by cluster takeover")

// DropSuperseded truncates still-pending replayed jobs whose IDs the
// cluster reported as adopted: each is settled with ErrSuperseded —
// journaled terminal (so the next replay skips it) and fully
// deregistered: the adopter is the job's one holder now, and a client
// polling the ID on this node gets 404 rather than a shadow copy.
// Already-terminal and unknown IDs are skipped. Returns the drop count.
func (s *Service) DropSuperseded(ids []string) int {
	dropped := 0
	for _, id := range ids {
		if j, ok := s.Job(id); ok && s.settle(j, nil, ErrSuperseded) {
			dropped++
		}
	}
	return dropped
}

// QueueLen reports the current queue depth: a node with a queue
// offloads to a peer whose heartbeat reports none.
func (s *Service) QueueLen() int { return len(s.queue) }

// tryPeerFill consults the cluster peer-fill hook before solving a
// cold job: the ring owner of the job's fingerprint may hold a proven
// result. On a hit the result seeds the local cache and the job is
// settled from the new entry, like any other hit; a fill the cache will
// not keep (unproven) is no answer.
func (s *Service) tryPeerFill(j *Job) bool {
	s.peerMu.Lock()
	fill := s.peerFill
	s.peerMu.Unlock()
	if fill == nil {
		return false
	}
	var e *cached
	if res, ok := fill(j.ctx, j.Fingerprint, j.Mode); ok {
		e = s.seed(j.Fingerprint, j.Mode, res)
	}
	if e == nil {
		s.peerMisses.Add(1)
		return false
	}
	s.peerHits.Add(1)
	s.settle(j, hitOf(e), nil)
	return true
}

// Offloader solves a job on a peer: the cluster's forwarded POST
// /v1/synthesize of the job's source, bounded by ctx, the job's context.
// ok is true only for a 200 answer for the job's own fingerprint and
// mode; anything else is no answer.
type Offloader func(ctx context.Context, src JobSource, fingerprint string, mode Mode) (res *Result, ok bool)

// Offload hands up to max of the oldest queued jobs that carry a source
// to peer. Each goes through runJob on its own goroutine, which claims
// it as a worker would — a worker that dequeues it later skips it — and
// solves it on peer instead of here. A held service offloads nothing:
// its replayed jobs wait for the join handshake.
func (s *Service) Offload(max int, peer Offloader) {
	if s.held.Load() {
		return
	}
	var queued []*Job
	for _, j := range s.allJobs() {
		if j.src != nil && j.State() == StateQueued && j.ctx.Err() == nil {
			queued = append(queued, j)
		}
	}
	// Oldest first: the longest-queued jobs gain the most from another
	// node's workers.
	slices.SortFunc(queued, func(a, b *Job) int { return a.created.Compare(b.created) })
	for _, j := range queued[:min(max, len(queued))] {
		s.runAsync(j, peer)
	}
}

// runAsync runs a job on its own goroutine with worker-equivalent
// panic containment, for paths that cannot use the queue channel: an
// adoption that finds it full, and an offload.
func (s *Service) runAsync(j *Job, peer Offloader) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				s.panicsRecovered.Add(1)
			}
		}()
		s.runJob(j, peer)
	}()
}

// AdoptReport summarizes a takeover: what a dead peer's shipped
// journal contributed to this node.
type AdoptReport struct {
	// Proven results re-seeded into the local cache.
	Proven int `json:"proven"`
	// Requeued jobs re-admitted here under their original IDs (instant
	// cache completions included).
	Requeued int `json:"requeued"`
	// Duplicates skipped because the ID is already registered — a prior
	// adoption of the same job. This is what makes takeover
	// and double-replay idempotent.
	Duplicates int `json:"duplicates"`
	// Failed adoptions: the local journal rejected the record.
	Failed int `json:"failed"`
}

// Adopt replays a dead peer's journal records into this service:
// proven results seed the cache, and accepted-but-unfinished jobs are
// re-admitted under their original (origin-prefixed) IDs — journaled
// locally first, so a crash of THIS node replays them again. IDs
// already registered are skipped, making adoption idempotent under
// double replay and under racing takeovers.
func (s *Service) Adopt(records []wal.Record) AdoptReport {
	// /readyz reports 503 for the duration: a node mid-adoption is still
	// rebuilding its cache and job set.
	s.adopting.Add(1)
	defer s.adopting.Add(-1)
	var rep AdoptReport
	st := scanJournal(records, s.idPrefix())
	for _, rr := range st.proven {
		s.seed(rr.Fingerprint, rr.Mode, rr.Result)
		rep.Proven++
	}
	for _, rec := range st.pending {
		s.mu.Lock()
		_, dup := s.jobs[rec.ID]
		closed := s.closed
		s.mu.Unlock()
		if dup {
			rep.Duplicates++
			continue
		}
		if closed {
			break
		}
		if err := s.journalAppend(recSubmit, rec); err != nil {
			s.journalErrors.Add(1)
			rep.Failed++
			continue
		}
		s.adopted.Add(1)
		if j, pending := s.readmit(rec); pending {
			s.requeue(j)
		}
		rep.Requeued++
	}
	return rep
}
