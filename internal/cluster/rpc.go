package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"configsynth/internal/service"
	"configsynth/internal/spec"
)

// forwardedHeader loop-guards request forwarding: a request that
// already hopped once is served where it lands, even if ring views
// momentarily disagree, so no request can orbit the cluster.
const forwardedHeader = "X-Confsynth-Forwarded"

// Wire types of the /cluster/v1 RPC surface. Mutating RPCs carry the
// sender's cluster epoch and are rejected with 409 on mismatch; the
// rejection body carries the receiver's full view, so one refused call
// is also the cure — the stale side adopts the newer view and retries.

type heartbeatResponse struct {
	Node       string `json:"node"`
	FPVersion  int    `json:"fp_version"`
	QueueDepth int    `json:"queue_depth"`
	// Epoch/Members are the responder's full cluster view; heartbeat
	// responses are how view changes propagate, one interval per hop in
	// the worst case, instantly across the full mesh in the common one.
	Epoch   uint64            `json:"epoch"`
	Members map[string]string `json:"members"`
}

// epochRejection is the body of a 409 epoch-mismatch response.
type epochRejection struct {
	Error   string            `json:"error"`
	Epoch   uint64            `json:"epoch"`
	Members map[string]string `json:"members,omitempty"`
}

type stealRequest struct {
	From  string `json:"from"`
	Epoch uint64 `json:"epoch"`
	Max   int    `json:"max"`
}

type stealResponse struct {
	Jobs []service.StolenJob `json:"jobs"`
}

type completeRequest struct {
	ID     string          `json:"id"`
	Epoch  uint64          `json:"epoch"`
	Result *service.Result `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

type completeResponse struct {
	Applied bool `json:"applied"`
}

type shipRequest struct {
	Node         string `json:"node"`
	ClusterEpoch uint64 `json:"cluster_epoch"`
	// Epoch/Offset address the chunk within the origin's journal
	// incarnation (wal epoch, not cluster epoch).
	Epoch  uint64 `json:"epoch"`
	Offset int64  `json:"offset"`
	Data   []byte `json:"data"`
}

type shipResponse struct {
	OK         bool   `json:"ok"`
	WantEpoch  uint64 `json:"want_epoch"`
	WantOffset int64  `json:"want_offset"`
}

// joinRequest is the rejoin handshake: the joiner presents its
// identity, fingerprint format version, and journal epoch.
type joinRequest struct {
	Node      string `json:"node"`
	URL       string `json:"url"`
	FPVersion int    `json:"fp_version"`
	WALEpoch  uint64 `json:"wal_epoch,omitempty"`
}

// Typed join refusal reasons. Version skew and identity conflicts are
// fatal — retrying cannot fix a binary mismatch or a stolen node ID;
// the rest are transient and the joiner rotates seeds with backoff.
const (
	RefusalVersionSkew       = "version-skew"
	RefusalIDConflict        = "id-conflict"
	RefusalMemberUnreachable = "member-unreachable"
	RefusalRetry             = "retry"
)

// JoinRefusedError is a typed refusal from the join handshake.
type JoinRefusedError struct {
	Reason string
	Detail string
}

func (e *JoinRefusedError) Error() string {
	return fmt.Sprintf("cluster: join refused (%s): %s", e.Reason, e.Detail)
}

// Fatal reports whether retrying the handshake is pointless.
func (e *JoinRefusedError) Fatal() bool {
	return e.Reason == RefusalVersionSkew || e.Reason == RefusalIDConflict
}

type joinResponse struct {
	Admitted bool   `json:"admitted"`
	Reason   string `json:"reason,omitempty"`
	Detail   string `json:"detail,omitempty"`
	// On admission: the minted epoch+1 view plus every job ID the
	// cluster holds — the set a stale local journal must not replay.
	Epoch      uint64            `json:"epoch,omitempty"`
	Members    map[string]string `json:"members,omitempty"`
	AdoptedIDs []string          `json:"adopted_ids,omitempty"`
}

type jobIDsResponse struct {
	IDs []string `json:"ids"`
}

type shadowStateResponse struct {
	Origin  string `json:"origin"`
	Records int    `json:"records"`
}

// handoffEntry is one proven cache entry streamed to a range's new
// owner during re-sharding.
type handoffEntry struct {
	Fingerprint string          `json:"fp"`
	Mode        service.Mode    `json:"mode"`
	Result      *service.Result `json:"result"`
}

type handoffRequest struct {
	From    string              `json:"from"`
	Epoch   uint64              `json:"epoch"`
	Entries []handoffEntry      `json:"entries,omitempty"`
	Jobs    []service.StolenJob `json:"jobs,omitempty"`
}

type handoffResponse struct {
	Accepted int `json:"accepted"`
}

// PeerInfo is one peer's liveness row in /statsz.
type PeerInfo struct {
	URL           string    `json:"url"`
	State         PeerState `json:"state"`
	MissedBeats   int       `json:"missed_beats"`
	LastSeenMSAgo int64     `json:"last_seen_ms_ago"`
	QueueDepth    int       `json:"queue_depth"`
}

// Stats is the cluster section of /statsz.
type Stats struct {
	NodeID    string `json:"node_id"`
	FPVersion int    `json:"fp_version"`
	// Epoch/Members are the installed cluster view; Successors are the
	// WAL-shipping followers under the current ring.
	Epoch      uint64              `json:"epoch"`
	Members    []string            `json:"members"`
	Successors []string            `json:"successors,omitempty"`
	Peers      map[string]PeerInfo `json:"peers"`

	RequestsForwarded int64 `json:"requests_forwarded"`
	ForwardFailures   int64 `json:"forward_failures"`
	// FillAsked/FillHits are client-side peer cache-fill counters;
	// FillServed counts hits this node answered for others.
	FillAsked  int64 `json:"fill_asked"`
	FillHits   int64 `json:"fill_hits"`
	FillServed int64 `json:"fill_served"`
	// JobsStolen counts jobs this node took from peers; posts are the
	// completions delivered back.
	JobsStolen   int64 `json:"jobs_stolen"`
	PostsApplied int64 `json:"posts_applied"`
	PostsFailed  int64 `json:"posts_failed"`
	Takeovers    int64 `json:"takeovers"`
	VersionSkew  int64 `json:"version_skew"`
	// EpochRejects counts RPCs this node refused for carrying a stale
	// cluster epoch.
	EpochRejects  int64 `json:"epoch_rejects,omitempty"`
	JoinsAdmitted int64 `json:"joins_admitted,omitempty"`
	Rejoins       int64 `json:"rejoins,omitempty"`
	// Reshards counts installed views that moved ranges; RangesMoved is
	// the total arc count across them.
	Reshards    int64 `json:"reshards,omitempty"`
	RangesMoved int64 `json:"ranges_moved,omitempty"`
	// Handoff counters: proven cache entries and delegated queued jobs
	// streamed out to (Sent) or accepted from (Recv) peers during
	// re-sharding.
	HandoffEntriesSent int64 `json:"handoff_entries_sent,omitempty"`
	HandoffEntriesRecv int64 `json:"handoff_entries_recv,omitempty"`
	HandoffJobsSent    int64 `json:"handoff_jobs_sent,omitempty"`
	HandoffJobsRecv    int64 `json:"handoff_jobs_recv,omitempty"`

	ShippedBytes    int64                  `json:"shipped_bytes,omitempty"`
	ShipResyncs     int64                  `json:"ship_resyncs,omitempty"`
	ShadowedOrigins int                    `json:"shadowed_origins,omitempty"`
	Replicas        map[string]ReplicaInfo `json:"replicas,omitempty"`
}

func (n *Node) stats() Stats {
	v := n.currentView()
	st := Stats{
		NodeID:             n.cfg.NodeID,
		FPVersion:          int(spec.FingerprintVersion),
		Epoch:              v.epoch,
		Members:            v.ids(),
		Peers:              n.mem.snapshot(),
		RequestsForwarded:  n.forwarded.Load(),
		ForwardFailures:    n.forwardFails.Load(),
		FillAsked:          n.fillAsked.Load(),
		FillHits:           n.fillHits.Load(),
		FillServed:         n.fillServed.Load(),
		JobsStolen:         n.jobsStolen.Load(),
		PostsApplied:       n.postsApplied.Load(),
		PostsFailed:        n.postsFailed.Load(),
		Takeovers:          n.takeovers.Load(),
		VersionSkew:        n.versionSkew.Load(),
		EpochRejects:       n.epochRejects.Load(),
		JoinsAdmitted:      n.joinsAdmitted.Load(),
		Rejoins:            n.rejoins.Load(),
		Reshards:           n.reshards.Load(),
		RangesMoved:        n.rangesMoved.Load(),
		HandoffEntriesSent: n.entriesSent.Load(),
		HandoffEntriesRecv: n.entriesRecv.Load(),
		HandoffJobsSent:    n.handoffSent.Load(),
		HandoffJobsRecv:    n.handoffRecv.Load(),
	}
	if n.ship != nil {
		st.Successors = n.ship.followers()
		st.ShippedBytes = n.ship.shipped.Load()
		st.ShipResyncs = n.ship.resyncs.Load()
		st.Replicas = n.ship.replicas()
	} else {
		st.Successors = n.curRing().successors(n.cfg.NodeID, replicationFactor)
	}
	if n.shadows != nil {
		st.ShadowedOrigins = n.shadows.count()
	}
	return st
}

// Handler wraps the service's HTTP API with the cluster surface: the
// /cluster/v1 RPC endpoints and a /statsz enriched with the cluster
// section. Everything else, /v1/synthesize included, passes through to
// inner untouched: the service routes a synthesis request through the
// hook New installs (route).
func (n *Node) Handler(inner http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cluster/v1/heartbeat", n.handleHeartbeat)
	mux.HandleFunc("GET /cluster/v1/cache", n.handleCacheFill)
	mux.HandleFunc("POST /cluster/v1/steal", n.handleSteal)
	mux.HandleFunc("POST /cluster/v1/complete", n.handleComplete)
	mux.HandleFunc("POST /cluster/v1/walship", n.handleWALShip)
	mux.HandleFunc("POST /cluster/v1/join", n.handleJoin)
	mux.HandleFunc("POST /cluster/v1/handoff", n.handleHandoff)
	mux.HandleFunc("GET /cluster/v1/jobids", n.handleJobIDs)
	mux.HandleFunc("GET /cluster/v1/shadowstate", n.handleShadowState)
	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			service.Stats
			Cluster Stats `json:"cluster"`
		}{n.svc.Stats(), n.stats()})
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Split by path rather than mounting inner at "/": a request the
		// mux only matches by that fallback pays a second, trailing-slash
		// lookup on every synthesis request.
		if strings.HasPrefix(r.URL.Path, "/cluster/") || r.URL.Path == "/statsz" {
			mux.ServeHTTP(w, r)
		} else {
			inner.ServeHTTP(w, r)
		}
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// rejectEpoch answers a stale-epoch RPC with 409 and the current view;
// returns true when the request was rejected.
func (n *Node) rejectEpoch(w http.ResponseWriter, reqEpoch uint64) bool {
	v := n.currentView()
	if reqEpoch == v.epoch {
		return false
	}
	n.epochRejects.Add(1)
	writeJSON(w, http.StatusConflict, epochRejection{
		Error:   fmt.Sprintf("cluster epoch %d, have %d", reqEpoch, v.epoch),
		Epoch:   v.epoch,
		Members: v.members,
	})
	return true
}

func (n *Node) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	v := n.currentView()
	writeJSON(w, http.StatusOK, heartbeatResponse{
		Node:       n.cfg.NodeID,
		FPVersion:  int(spec.FingerprintVersion),
		QueueDepth: n.svc.QueueLen(),
		Epoch:      v.epoch,
		Members:    v.members,
	})
}

// handleCacheFill serves this node's proven cache to peers. The caller
// states its fingerprint format version explicitly: a hit under a
// different format would be a wrong answer with a matching key, the
// worst possible failure, so skew is refused outright.
func (n *Node) handleCacheFill(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("v") != fmt.Sprint(int(spec.FingerprintVersion)) {
		writeJSON(w, http.StatusConflict, map[string]string{
			"error": fmt.Sprintf("fingerprint version %q, want %d", q.Get("v"), spec.FingerprintVersion),
		})
		return
	}
	if epoch, err := strconv.ParseUint(q.Get("epoch"), 10, 64); err == nil && n.rejectEpoch(w, epoch) {
		return
	}
	fp, mode := q.Get("fp"), service.Mode(q.Get("mode"))
	res, ok := n.svc.CacheLookup(fp, mode)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "miss"})
		return
	}
	n.fillServed.Add(1)
	writeJSON(w, http.StatusOK, res)
}

func (n *Node) handleSteal(w http.ResponseWriter, r *http.Request) {
	var req stealRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if n.rejectEpoch(w, req.Epoch) {
		return
	}
	writeJSON(w, http.StatusOK, stealResponse{Jobs: n.svc.StealJobs(req.From, req.Max)})
}

func (n *Node) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if n.rejectEpoch(w, req.Epoch) {
		return
	}
	writeJSON(w, http.StatusOK, completeResponse{
		Applied: n.svc.CompleteRemote(req.ID, req.Result, req.Error),
	})
}

func (n *Node) handleWALShip(w http.ResponseWriter, r *http.Request) {
	if n.shadows == nil {
		writeJSON(w, http.StatusNotImplemented, map[string]string{"error": "no journal configured"})
		return
	}
	var req shipRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if n.rejectEpoch(w, req.ClusterEpoch) {
		return
	}
	writeJSON(w, http.StatusOK, n.shadows.receive(req))
}

// handleJoin admits a (re)joining node: any member runs the admission.
// The join is refused outright on fingerprint-format skew or an
// identity conflict (a live member already owns the node ID); it is
// refused transiently when a current member cannot be reached, because
// admission must return the complete set of job IDs the cluster holds —
// the set the joiner's stale journal must not replay. On success the
// admitting node mints the epoch+1 view and the heartbeat mesh
// propagates it.
func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if req.Node == "" || req.URL == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "join: node and url are required"})
		return
	}
	writeJSON(w, http.StatusOK, n.admitJoin(req))
}

func (n *Node) admitJoin(req joinRequest) joinResponse {
	refuse := func(reason, detail string) joinResponse {
		n.cfg.Logf("cluster: refusing join of %s (%s): %s", req.Node, reason, detail)
		return joinResponse{Admitted: false, Reason: reason, Detail: detail}
	}
	if req.FPVersion != int(spec.FingerprintVersion) {
		return refuse(RefusalVersionSkew,
			fmt.Sprintf("joiner runs fingerprint format v%d, cluster runs v%d", req.FPVersion, spec.FingerprintVersion))
	}
	if req.Node == n.cfg.NodeID {
		return refuse(RefusalIDConflict, fmt.Sprintf("node ID %q is this admitting node's own", req.Node))
	}
	n.joinMu.Lock()
	defer n.joinMu.Unlock()
	cur := n.currentView()
	if url, ok := cur.members[req.Node]; ok && url != strings.TrimRight(req.URL, "/") && n.mem.state(req.Node) == StateAlive {
		return refuse(RefusalIDConflict,
			fmt.Sprintf("node ID %q is held by a live member at %s", req.Node, url))
	}
	// Collect every job ID the cluster holds: the joiner's jobs a
	// follower adopted after its death or that it had delegated, and —
	// a journal also holds what its node adopted — other origins' jobs
	// the joiner took over before it died and that a follower of the
	// joiner has adopted since. The joiner truncates these from its stale
	// journal instead of replaying them.
	idset := map[string]bool{}
	for _, id := range cur.ids() {
		switch {
		case id == req.Node:
			continue
		case id == n.cfg.NodeID:
			// takeoverMu serializes against an in-flight local takeover,
			// so a half-adopted journal is never reported.
			n.takeoverMu.Lock()
			ids := n.svc.JobIDs()
			n.takeoverMu.Unlock()
			for _, jid := range ids {
				idset[jid] = true
			}
		case n.mem.state(id) == StateDead:
			continue // its removal view is imminent; it holds nothing reachable
		default:
			url := fmt.Sprintf("%s/cluster/v1/jobids?epoch=%d", cur.members[id], cur.epoch)
			var jr jobIDsResponse
			if err := n.retry(3, func() error { return n.call(n.stopCtx, http.MethodGet, url, nil, &jr) }); err != nil {
				return refuse(RefusalMemberUnreachable, fmt.Sprintf("member %s: %v", id, err))
			}
			for _, jid := range jr.IDs {
				idset[jid] = true
			}
		}
	}
	next := cur.with(req.Node, req.URL)
	if !n.installView(next, "join of "+req.Node) {
		return refuse(RefusalRetry, "membership changed during admission")
	}
	n.joinsAdmitted.Add(1)
	adopted := make([]string, 0, len(idset))
	for jid := range idset {
		adopted = append(adopted, jid)
	}
	sort.Strings(adopted)
	n.cfg.Logf("cluster: admitted %s at %s (journal epoch %d) into view epoch %d; %d job IDs held cluster-wide",
		req.Node, req.URL, req.WALEpoch, next.epoch, len(adopted))
	return joinResponse{Admitted: true, Epoch: next.epoch, Members: next.members, AdoptedIDs: adopted}
}

// handleJobIDs reports every job ID registered here (the join
// handshake's truncation-set collection). takeoverMu makes it wait out
// an in-flight takeover so adoption is never half-reported.
func (n *Node) handleJobIDs(w http.ResponseWriter, r *http.Request) {
	n.takeoverMu.Lock()
	ids := n.svc.JobIDs()
	n.takeoverMu.Unlock()
	writeJSON(w, http.StatusOK, jobIDsResponse{IDs: ids})
}

// handleShadowState reports how much of an origin's journal this node
// holds in its shadow — the quorum takeover's comparison input. A
// follower that already yielded (dropped its shadow) reports zero, so
// the co-follower's later verdict stays consistent.
func (n *Node) handleShadowState(w http.ResponseWriter, r *http.Request) {
	origin := r.URL.Query().Get("origin")
	resp := shadowStateResponse{Origin: origin}
	if n.shadows != nil {
		if recs, err := n.shadows.records(origin); err == nil {
			resp.Records = len(recs)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHandoff accepts moved-range state from the old owner after a
// re-shard: proven cache entries seed the local cache, delegated queued
// jobs run here with completions posted back to the origin.
func (n *Node) handleHandoff(w http.ResponseWriter, r *http.Request) {
	var req handoffRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if n.rejectEpoch(w, req.Epoch) {
		return
	}
	for _, e := range req.Entries {
		n.svc.CacheSeed(e.Fingerprint, e.Mode, e.Result)
	}
	n.entriesRecv.Add(int64(len(req.Entries)))
	for _, job := range req.Jobs {
		n.handoffRecv.Add(1)
		job := job
		origin := req.From
		n.goAsync(func() { n.runStolen(origin, job) })
	}
	writeJSON(w, http.StatusOK, handoffResponse{Accepted: len(req.Entries) + len(req.Jobs)})
}

// route is the service's synthesis router (service.Router): a request
// the service has read, parsed and fingerprinted runs on the ring owner
// of that fingerprint, so repeat problems land where their result is
// cached. A request that already hopped runs where it landed, and one
// whose owner cannot be reached or fails runs here: forwarding is an
// optimization, never a point of failure.
func (n *Node) route(w http.ResponseWriter, r *http.Request, body []byte, fp string) bool {
	if r.Header.Get(forwardedHeader) != "" {
		return false
	}
	owner := n.curRing().owner(fp, n.mem.alive)
	if owner == "" || owner == n.cfg.NodeID {
		return false
	}
	// Counted before the owner's answer is relayed, which a client can
	// read to the end before forward returns.
	n.forwarded.Add(1)
	if n.forward(w, r, body, n.mem.url(owner)) {
		return true
	}
	n.forwarded.Add(-1)
	n.forwardFails.Add(1)
	return false
}

// forward proxies the request to the owner node, streaming the
// response (NDJSON event streams flush per write). Reports false when
// the owner could not be reached or returned a 5xx — the caller then
// serves locally.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, body []byte, baseURL string) bool {
	url := baseURL + r.URL.RequestURI()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	req.Header.Set(forwardedHeader, n.cfg.NodeID)
	resp, err := n.fwdClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		io.Copy(io.Discard, resp.Body)
		return false
	}
	// Content-Length with the rest: a hit says its length, and passing it
	// on keeps the forwarded copy from being re-chunked.
	for _, h := range []string{"Content-Type", "Content-Length", "Retry-After", "Location", "X-Cache"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp.Body)
	return true
}

// flushCopy streams src to w, flushing after every chunk so forwarded
// NDJSON event streams stay live.
func flushCopy(w http.ResponseWriter, src io.Reader) {
	rc := http.NewResponseController(w)
	buf := make([]byte, 32<<10)
	for {
		m, err := src.Read(buf)
		if m > 0 {
			if _, werr := w.Write(buf[:m]); werr != nil {
				return
			}
			rc.Flush()
		}
		if err != nil {
			return
		}
	}
}

// call is the one control-plane RPC: in, when non-nil, is the JSON
// request body, and a 200 answer decodes into out. It rides rpcClient's
// tight timeout. A 409 epoch rejection is still an error to the caller,
// but the rejection body's newer view is adopted on the spot, so the
// retry (next tick, next attempt) runs under the epoch the receiver
// wanted.
func (n *Node) call(ctx context.Context, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := n.rpcClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		var rej epochRejection
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&rej) == nil && len(rej.Members) > 0 {
			n.installView(newView(rej.Epoch, rej.Members), "epoch rejection from "+url)
		}
		return fmt.Errorf("cluster rpc: %s: %s", url, resp.Status)
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("cluster rpc: %s: %s", url, resp.Status)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(out)
}
