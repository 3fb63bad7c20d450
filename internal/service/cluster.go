package service

// Cluster-facing hooks: everything internal/cluster needs from a
// Service. A cluster node wires a synthesis router, a peer-cache filler
// and a journal notifier after Open, steals queued jobs from overloaded
// peers (and applies the completions they post back), and adopts a dead
// peer's shipped journal during takeover. None of this is reachable
// unless the cluster layer calls it, so single-node deployments are
// unaffected.

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"time"

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

// QueueLen reports the current queue depth: the work-stealing signal
// peers compare against their own idleness.
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

// StolenJob is one queued job handed to a stealing peer: enough to
// rebuild and solve the problem remotely and post the result back.
type StolenJob struct {
	ID          string `json:"id"`
	Mode        Mode   `json:"mode"`
	Fingerprint string `json:"fp"`
	JobSource
	// RemainingMS is what is left of the job's deadline; the stealer
	// bounds its run by it so origin and thief agree on expiry.
	RemainingMS int64 `json:"remaining_ms"`
}

// StealJobs hands up to max queued jobs to a stealing peer. Each handed
// job is marked delegated — the local workers skip it — and stays
// registered here: the peer posts its result back via CompleteRemote,
// the job's own deadline still bounds it (a watcher fires if the peer
// never answers), and a peer death re-enqueues it locally via
// ReenqueueStolen. Only jobs with a replayable source are eligible,
// since a stolen job ships as spec text.
func (s *Service) StealJobs(peer string, max int) []StolenJob {
	if peer == "" || max <= 0 {
		return nil
	}
	cands := s.allJobs()
	// Oldest first: the longest-queued jobs gain the most from another
	// node's workers.
	sort.Slice(cands, func(i, k int) bool { return cands[i].created.Before(cands[k].created) })
	var out []StolenJob
	for _, j := range cands {
		if len(out) >= max {
			break
		}
		if !j.tryDelegate(peer) {
			continue
		}
		s.stolenFromMe.Add(1)
		s.watchDelegated(j)
		sj := StolenJob{
			ID:          j.ID,
			Mode:        j.Mode,
			Fingerprint: j.Fingerprint,
			JobSource:   *j.src,
		}
		if d, ok := j.ctx.Deadline(); ok {
			sj.RemainingMS = time.Until(d).Milliseconds()
		}
		out = append(out, sj)
	}
	return out
}

// watchDelegated bounds a stolen job by its own deadline: if the
// stealing peer never posts a result (death, partition), the job still
// terminates when its context expires, exactly as a local run would.
func (s *Service) watchDelegated(j *Job) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case <-j.ctx.Done():
			// Every terminal transition cancels the context, so this arm
			// also fires after a remote completion; settle lets only the
			// first transition through.
			s.settle(j, nil, j.ctx.Err())
		case <-j.done:
		}
	}()
}

// CompleteRemote applies a stealing peer's outcome to a delegated job.
// Unknown IDs and already-terminal jobs (the deadline watcher may have
// won the race) report false; the first caller to land wins, exactly
// once.
func (s *Service) CompleteRemote(id string, res *Result, errMsg string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	var err error
	if res != nil {
		// The thief may have answered from its own cache or a session;
		// here the result is a fresh solve, and a proven one seeds the
		// local cache exactly as a local solve's would.
		cp := *res
		cp.Cached, cp.Session = false, ""
		res = &cp
	} else {
		if errMsg == "" {
			errMsg = "remote completion without a result"
		}
		err = errors.New(errMsg)
	}
	if !s.settle(j, res, err) {
		return false
	}
	s.stolenDone.Add(1)
	return true
}

// ReenqueueStolen returns every job delegated to a now-dead peer to the
// local pool. Jobs that completed or expired in the meantime are left
// alone. Returns how many were reclaimed.
func (s *Service) ReenqueueStolen(peer string) int {
	n := 0
	for _, j := range s.allJobs() {
		if !j.undelegate(peer) {
			continue
		}
		n++
		s.runAsync(j)
	}
	return n
}

// runAsync runs a job on its own goroutine with worker-equivalent
// panic containment, for paths that cannot use the queue channel (it
// may be full — or closed — during takeover and reclaim).
func (s *Service) runAsync(j *Job) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				s.panicsRecovered.Add(1)
			}
		}()
		s.runJob(j)
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
	// adoption or steal of the same job. This is what makes takeover
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
