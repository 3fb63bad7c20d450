package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"configsynth/internal/wal"
)

// WAL shipping is the cluster's durability story for node death: every
// node tails its own job journal and pushes the raw bytes to its two
// ring successors (replicationFactor), each of which accumulates them in
// a per-origin shadow file under an independent ack cursor. A shipped
// chunk is addressed by (epoch, byte offset); the epoch changes whenever
// the leader's journal is rewritten (compaction, restart), at which
// point a follower truncates its shadow and resyncs from zero — offsets
// are only comparable within one epoch. When the leader dies, its
// followers parse their shadows exactly the way wal.Open parses a
// crashed log (tolerating the torn tail a mid-chunk death leaves) and
// the quorum takeover protocol (node.runTakeover) picks the follower
// holding more acked records to adopt them: proven results seed its
// cache, unfinished jobs re-run there under their original IDs. Two
// followers means the journal survives two simultaneous failures —
// origin plus one follower.

// shipChunkBytes bounds one WAL shipping RPC's payload.
const shipChunkBytes = 256 << 10

// shipCursor is one follower's ack position in the local journal.
type shipCursor struct {
	id     string
	mu     sync.Mutex
	offset int64
	epoch  uint64 // journal epoch the offset is valid in
}

// shipper tails the local journal to the current followers. The
// follower set is dynamic: every installed view retargets it at the new
// ring successors, keeping cursors for retained followers and starting
// new ones from scratch.
type shipper struct {
	n   *Node
	log *wal.Log

	notify chan struct{}

	mu      sync.Mutex
	cursors map[string]*shipCursor

	shipped atomic.Int64
	resyncs atomic.Int64
}

func newShipper(n *Node, log *wal.Log) *shipper {
	return &shipper{n: n, log: log, notify: make(chan struct{}, 1), cursors: map[string]*shipCursor{}}
}

// retarget points the shipper at a new follower set: cursors of
// retained followers keep their ack position, new followers start from
// zero (epoch 0 never matches a live journal, forcing a clean resync),
// and dropped followers are forgotten — their stale shadows are the
// dropped follower's to discard (installView does) or truncate on the
// next epoch mismatch.
func (s *shipper) retarget(followers []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := make(map[string]bool, len(followers))
	for _, f := range followers {
		keep[f] = true
		if _, ok := s.cursors[f]; !ok {
			s.cursors[f] = &shipCursor{id: f}
		}
	}
	for f := range s.cursors {
		if !keep[f] {
			delete(s.cursors, f)
		}
	}
}

// followers returns the current follower IDs, sorted.
func (s *shipper) followers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.cursors))
	for id := range s.cursors {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (s *shipper) snapshotCursors() []*shipCursor {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*shipCursor, 0, len(s.cursors))
	for _, c := range s.cursors {
		out = append(out, c)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].id < out[k].id })
	return out
}

// wake nudges the shipper after a journal append (non-blocking; a full
// buffer means a ship is already pending).
func (s *shipper) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// run ships on every journal append and on a fallback ticker (the
// ticker re-drives delivery after follower outages). Owned by Node.wg;
// Node.Start adds the count.
func (s *shipper) run() {
	defer s.n.wg.Done()
	t := time.NewTicker(s.n.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-s.n.stopCtx.Done():
			return
		case <-s.notify:
		case <-t.C:
		}
		s.shipPending()
	}
}

// shipPending pushes journal bytes to every follower independently: one
// follower being down or lagging never blocks the other's replication.
func (s *shipper) shipPending() {
	for _, c := range s.snapshotCursors() {
		s.shipTo(c)
	}
}

// shipTo pushes journal bytes until the follower is caught up or
// unreachable. The iteration bound makes a pathological disagreement
// loop (follower repeatedly asking for an offset we just sent) fail
// safe into the next tick instead of spinning.
func (s *shipper) shipTo(c *shipCursor) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < 64; i++ {
		data, next, epoch, err := s.log.TailFrom(c.offset, shipChunkBytes)
		if errors.Is(err, wal.ErrOutOfRange) || (err == nil && epoch != c.epoch) {
			// Compaction rewrote the journal out from under the cursor:
			// start the new epoch from zero.
			if c.epoch != 0 {
				s.resyncs.Add(1)
			}
			c.epoch, c.offset = epoch, 0
			continue
		}
		url := s.n.mem.url(c.id)
		if err != nil || len(data) == 0 || url == "" {
			return
		}
		var resp shipResponse
		if s.n.call(s.n.stopCtx, http.MethodPost, url+"/cluster/v1/walship", shipRequest{
			Node:         s.n.cfg.NodeID,
			ClusterEpoch: s.n.epoch(),
			Epoch:        epoch,
			Offset:       c.offset,
			Data:         data,
		}, &resp) != nil {
			return // follower down; the ticker retries
		}
		if !resp.OK {
			// The follower's shadow is elsewhere (it restarted, or we
			// did): adopt its cursor and re-ship from there.
			s.resyncs.Add(1)
			if resp.WantEpoch == epoch {
				c.offset = resp.WantOffset
			} else {
				c.offset = 0
			}
			continue
		}
		s.shipped.Add(int64(len(data)))
		c.offset = next
	}
}

// ReplicaInfo is one follower's replication position in /statsz.
type ReplicaInfo struct {
	// AckedOffset is the journal byte offset the follower has durably
	// acknowledged; WALEpoch is the journal epoch it is valid in.
	AckedOffset int64  `json:"acked_offset"`
	WALEpoch    uint64 `json:"wal_epoch"`
	// LagBytes is how far the follower trails the journal's durable
	// end; a follower on a stale epoch lags by the whole log.
	LagBytes int64 `json:"lag_bytes"`
}

// replicas reports per-follower replication lag.
func (s *shipper) replicas() map[string]ReplicaInfo {
	end, curEpoch := s.log.Size(), s.log.Epoch()
	out := map[string]ReplicaInfo{}
	for _, c := range s.snapshotCursors() {
		c.mu.Lock()
		info := ReplicaInfo{AckedOffset: c.offset, WALEpoch: c.epoch, LagBytes: end}
		if c.epoch == curEpoch {
			info.LagBytes = max(end-c.offset, 0)
		}
		c.mu.Unlock()
		out[c.id] = info
	}
	return out
}

// shadow is one origin's accumulated journal bytes on a follower.
type shadow struct {
	mu     sync.Mutex
	f      *os.File
	epoch  uint64
	offset int64
	// adopted counts the records a takeover already adopted (see claim).
	adopted int
}

// shadowStore holds the shadows this node follows, one file per
// origin, under dir. Files persist across restarts: a restarted
// follower serves takeover from the on-disk shadow even before the
// leader re-ships anything.
type shadowStore struct {
	dir string
	mu  sync.Mutex
	m   map[string]*shadow
}

func shadowDirFor(journalPath string) string {
	return filepath.Join(filepath.Dir(journalPath), "shadows")
}

func newShadowStore(dir string) (*shadowStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: shadow dir: %w", err)
	}
	return &shadowStore{dir: dir, m: make(map[string]*shadow)}, nil
}

func (st *shadowStore) pathFor(origin string) string {
	return filepath.Join(st.dir, origin+".shadow.wal")
}

func (st *shadowStore) get(origin string) (*shadow, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if sh, ok := st.m[origin]; ok {
		return sh, nil
	}
	f, err := os.OpenFile(st.pathFor(origin), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	// Epoch zero never matches a live leader's (clock-seeded) epoch, so
	// the first chunk after a follower restart always resyncs the
	// shadow from scratch — stale bytes can never be appended to.
	st.m[origin] = &shadow{f: f}
	return st.m[origin], nil
}

// receive applies one shipped chunk: epoch changes truncate and
// restart the shadow; offset gaps are answered with the offset the
// shadow actually wants, making delivery self-healing under drops,
// retries, and either side restarting.
func (st *shadowStore) receive(req shipRequest) shipResponse {
	sh, err := st.get(req.Node)
	if err != nil {
		return shipResponse{OK: false, WantEpoch: req.Epoch, WantOffset: 0}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if req.Epoch != sh.epoch {
		if err := sh.f.Truncate(0); err != nil {
			return shipResponse{OK: false, WantEpoch: sh.epoch, WantOffset: sh.offset}
		}
		sh.epoch, sh.offset, sh.adopted = req.Epoch, 0, 0
	}
	if req.Offset != sh.offset {
		return shipResponse{OK: false, WantEpoch: sh.epoch, WantOffset: sh.offset}
	}
	if _, err := sh.f.WriteAt(req.Data, sh.offset); err != nil {
		return shipResponse{OK: false, WantEpoch: sh.epoch, WantOffset: sh.offset}
	}
	sh.offset += int64(len(req.Data))
	return shipResponse{OK: true, WantEpoch: sh.epoch, WantOffset: sh.offset}
}

// claim records that a takeover adopts the first recs records of
// origin's shadow and reports whether any of them is new: a removal
// that finds nothing shipped since the last adoption adopts nothing.
// An equal-epoch merge can bring a dead member back until its death is
// detected again, and that second removal finds the same records. A
// member declared dead while alive rejoins on the same journal and
// ships on, so its real death later finds more; Adopt skips the IDs
// the first adoption registered. The first chunk of a new incarnation
// starts the count again.
func (st *shadowStore) claim(origin string, recs int) bool {
	sh, err := st.get(origin)
	if err != nil {
		return false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if recs <= sh.adopted {
		return false
	}
	sh.adopted = recs
	return true
}

// records parses an origin's shadow for takeover. The on-disk file is
// read fresh (not the in-memory cursor) so a restarted follower can
// still adopt what was shipped before the restart. A torn tail — the
// leader died mid-chunk — is tolerated exactly like a crashed log's.
func (st *shadowStore) records(origin string) ([]wal.Record, error) {
	data, err := os.ReadFile(st.pathFor(origin))
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, errors.New("empty shadow")
	}
	return wal.ParseSegment(data), nil
}

// origins lists every origin with an on-disk shadow (including shadows
// from before a restart that nothing has shipped to yet).
func (st *shadowStore) origins() []string {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range ents {
		if name, ok := strings.CutSuffix(e.Name(), ".shadow.wal"); ok && !e.IsDir() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// drop discards an origin's shadow — the yielding side of a quorum
// takeover (the co-follower with more acked records adopts) and the
// re-shard path where this node stops being one of the origin's
// followers. Dropping (rather than keeping a stale file) is what makes
// the takeover verdict symmetric: a follower that yielded reports zero
// records afterwards, so the late-deciding co-follower still adopts.
func (st *shadowStore) drop(origin string) {
	st.mu.Lock()
	if sh, ok := st.m[origin]; ok {
		sh.mu.Lock()
		sh.f.Close()
		sh.mu.Unlock()
		delete(st.m, origin)
	}
	st.mu.Unlock()
	os.Remove(st.pathFor(origin))
}

func (st *shadowStore) count() int {
	return len(st.origins())
}

func (st *shadowStore) close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, sh := range st.m {
		sh.mu.Lock()
		sh.f.Close()
		sh.mu.Unlock()
	}
	st.m = map[string]*shadow{}
}
