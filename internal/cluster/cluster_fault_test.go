package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/service"
	"configsynth/internal/spec"
)

// Fault-matrix tests for the replicated WAL and the epoch-versioned
// membership protocol: replica lag accounting, divergent ack offsets
// between the two successors, the concurrent-suspect takeover race
// (adoption must happen exactly once), stale-epoch RPC rejection, and
// the rejoin handshake's stale-journal truncation set.

// TestShipperTracksLagAndDivergentAckOffsets drives the shipper over the
// simulated network (sim_test.go): a follower behind a down link lags by
// the whole log, a recovered one catches up in a single round, and a
// follower that goes down mid-stream leaves the two ack offsets
// divergent — the exact state the quorum takeover compares record
// counts over.
func TestShipperTracksLagAndDivergentAckOffsets(t *testing.T) {
	sn := newSimNet(t, "n1", "n2", "n3")
	n, svc := sn.nodes["n1"].node, sn.nodes["n1"].svc
	stores := map[string]*shadowStore{"n2": sn.nodes["n2"].node.shadows, "n3": sn.nodes["n3"].node.shadows}
	sn.setLink("n1", "n3", false)

	jl := svc.Journal()
	for i := 0; i < 3; i++ {
		if err := jl.Append("submit", map[string]int{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	n.ship.shipPending()
	end := jl.Size()
	reps := n.ship.replicas()
	if r := reps["n2"]; r.AckedOffset != end || r.LagBytes != 0 {
		t.Fatalf("healthy follower: %+v, want acked=%d lag=0", r, end)
	}
	if r := reps["n3"]; r.AckedOffset != 0 || r.LagBytes != end {
		t.Fatalf("down follower: %+v, want acked=0 lag=%d (whole log)", r, end)
	}

	// The lagging follower recovers: one round catches it up.
	sn.setLink("n1", "n3", true)
	n.ship.shipPending()
	if r := n.ship.replicas()["n3"]; r.AckedOffset != end || r.LagBytes != 0 {
		t.Fatalf("recovered follower: %+v, want acked=%d lag=0", r, end)
	}

	// The other follower dies mid-stream: the two ack offsets diverge,
	// and the shadows hold divergent record counts.
	sn.setLink("n1", "n2", false)
	for i := 3; i < 5; i++ {
		if err := jl.Append("submit", map[string]int{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	n.ship.shipPending()
	full := jl.Size()
	reps = n.ship.replicas()
	if r := reps["n2"]; r.AckedOffset != end || r.LagBytes != full-end {
		t.Fatalf("stalled follower: %+v, want acked=%d lag=%d", r, end, full-end)
	}
	if r := reps["n3"]; r.AckedOffset != full || r.LagBytes != 0 {
		t.Fatalf("current follower: %+v, want acked=%d lag=0", r, full)
	}
	behind, _ := stores["n2"].records("n1")
	ahead, _ := stores["n3"].records("n1")
	if len(ahead)-len(behind) != 2 {
		t.Fatalf("shadow records: behind=%d ahead=%d, want a 2-record divergence",
			len(behind), len(ahead))
	}
}

// TestTakeoverAdoptsFollowerWithMoreAckedRecords creates a real ack
// divergence between a dead node's two followers (one follower lost its
// whole shadow) and asserts the quorum verdict: the follower holding
// more acked records adopts, the other does not, adoption happens
// exactly once cluster-wide.
func TestTakeoverAdoptsFollowerWithMoreAckedRecords(t *testing.T) {
	nodes := startCluster(t, 4, true, nil)
	byID := map[string]*testNode{}
	for _, tn := range nodes {
		byID[tn.id] = tn
	}
	victim := nodes[0]
	succ := victim.node.curRing().successors(victim.id, replicationFactor)
	fLo, fHi := byID[succ[0]], byID[succ[1]]
	fp := specFingerprint(t)

	// Solve directly on the victim (loop-guard header bypasses routing).
	req, _ := http.NewRequest(http.MethodPost, victim.url+"/v1/synthesize?timeout=60s", strings.NewReader(clusterSpec))
	req.Header.Set(forwardedHeader, "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("victim solve: %d", resp.StatusCode)
	}
	waitFor(t, "journal shipped to both followers", 10*time.Second, func() bool {
		a, aerr := fLo.node.shadows.records(victim.id)
		b, berr := fHi.node.shadows.records(victim.id)
		return aerr == nil && berr == nil && len(a) >= 2 && len(a) == len(b)
	})

	// The tie-favored follower (successor rank 0) loses its shadow — a
	// disk wipe, or it was re-sharded away and back. Nothing re-ships:
	// the victim's journal is quiescent.
	fLo.node.shadows.drop(victim.id)

	victim.kill()
	waitFor(t, "takeover by the follower with more records", 10*time.Second, func() bool {
		return fHi.node.takeovers.Load() == 1
	})
	if _, ok := fHi.svc.CacheLookup(fp, service.ModeSolve); !ok {
		t.Fatal("adopting follower did not seed its cache from the shadow")
	}
	time.Sleep(250 * time.Millisecond)
	var total int64
	for _, tn := range nodes[1:] {
		total += tn.node.takeovers.Load()
	}
	if total != 1 {
		t.Fatalf("%d takeovers across survivors, want exactly 1", total)
	}
	if fLo.node.takeovers.Load() != 0 {
		t.Fatal("the shadowless follower adopted despite holding fewer records")
	}
}

// TestConcurrentSuspectTakeoverTieBreaksOnSuccessorOrder kills a node
// whose two followers hold identical shadows and suspect the death
// concurrently: the earlier successor must win the tie, the later one
// must yield and drop its shadow, and adoption must happen exactly once.
func TestConcurrentSuspectTakeoverTieBreaksOnSuccessorOrder(t *testing.T) {
	nodes := startCluster(t, 4, true, nil)
	byID := map[string]*testNode{}
	for _, tn := range nodes {
		byID[tn.id] = tn
	}
	victim := nodes[0]
	succ := victim.node.curRing().successors(victim.id, replicationFactor)
	fLo, fHi := byID[succ[0]], byID[succ[1]]

	req, _ := http.NewRequest(http.MethodPost, victim.url+"/v1/synthesize?timeout=60s", strings.NewReader(clusterSpec))
	req.Header.Set(forwardedHeader, "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("victim solve: %d", resp.StatusCode)
	}
	waitFor(t, "identical shadows on both followers", 10*time.Second, func() bool {
		a, aerr := fLo.node.shadows.records(victim.id)
		b, berr := fHi.node.shadows.records(victim.id)
		return aerr == nil && berr == nil && len(a) >= 2 && len(a) == len(b)
	})

	victim.kill()
	waitFor(t, "takeover by the earlier successor", 10*time.Second, func() bool {
		return fLo.node.takeovers.Load() == 1
	})
	// The yielding follower truncates its shadow so any later
	// shadow-state query reports zero and the verdict stays consistent.
	waitFor(t, "later successor yields and drops its shadow", 10*time.Second, func() bool {
		_, err := fHi.node.shadows.records(victim.id)
		return err != nil && fHi.node.takeovers.Load() == 0
	})
	time.Sleep(250 * time.Millisecond)
	var total int64
	for _, tn := range nodes[1:] {
		total += tn.node.takeovers.Load()
	}
	if total != 1 {
		t.Fatalf("%d takeovers across survivors, want exactly 1", total)
	}
}

// TestOffloadToSilentPeerEndsOnDeathView: a peer that accepts an offload
// and never answers holds the job only until the installed view drops
// it — here a death view from another node, before this node's own
// heartbeats decide — and the job then solves at home, well inside its
// deadline.
func TestOffloadToSilentPeerEndsOnDeathView(t *testing.T) {
	sn := newSimNet(t, "n1", "n2", "n3")
	n1, n2 := sn.nodes["n1"], sn.nodes["n2"]
	accepted := make(chan struct{}, 1)
	inner := n2.h
	n2.h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/synthesize" {
			inner.ServeHTTP(w, r)
			return
		}
		accepted <- struct{}{}
		<-r.Context().Done()
	})

	// Pin n1's only worker so the job below stays queued; n1 owns it, so
	// its peer fill asks nobody.
	pin, err := n1.svc.Submit(hardTestProblem(t), service.SubmitOptions{
		Mode: service.ModeMaxIsolation, Timeout: 5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		pin.Cancel()
		<-pin.Done()
	}()
	waitFor(t, "pin running", 10*time.Second, func() bool { return pin.State() == service.StateRunning })
	i, _ := variantWhere(t, func(fp string) bool { return n1.node.curRing().owner(fp, nil) == "n1" })
	j, err := n1.svc.Submit(mustParse(t, variantSpec(t, i)), service.SubmitOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	n1.node.heartbeatAll() // n2 and n3 report empty queues; n2 is picked
	n1.node.offloadOnce()
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("the offload never reached n2")
	}
	n1.node.installView(n1.node.currentView().without("n2"), "death view from a peer")
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("job %s offloaded to the silent peer still %s 5s after its death view", j.ID, j.State())
	}
	if res, err := j.Result(); err != nil || res.Status != "sat" {
		t.Fatalf("job back from the silent peer: %+v, %v", res, err)
	}
	if got := n1.node.offloaded.Load(); got != 0 {
		t.Fatalf("%d offloads counted as run on a peer, want 0", got)
	}
}

func mustParse(t *testing.T, text string) *core.Problem {
	t.Helper()
	p, err := spec.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStaleEpochRPCRejectedWithCurrentView sends an epoch-guarded RPC (a
// cache fill) stamped with a dead epoch: the receiver must refuse it with
// 409 and return its full current view in the rejection body (the cure
// rides the refusal).
func TestStaleEpochRPCRejectedWithCurrentView(t *testing.T) {
	nodes := startCluster(t, 3, false, nil)
	nodes[2].kill()
	waitFor(t, "death view installed", 10*time.Second, func() bool {
		return nodes[0].node.epoch() >= 1
	})

	// n1 holds a proven entry, so a fill that passes the epoch guard hits.
	solved, err := nodes[0].svc.Submit(mustParse(t, clusterSpec), service.SubmitOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solved.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	fill := func(epoch uint64) *http.Response {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/cluster/v1/cache?fp=%s&mode=%s&v=%d&epoch=%d",
			nodes[0].url, specFingerprint(t), service.ModeSolve, spec.FingerprintVersion, epoch))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	resp := fill(0)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale-epoch fill answered %d, want 409", resp.StatusCode)
	}
	var rej epochRejection
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	if rej.Epoch < 1 || rej.Members["n1"] == "" || rej.Members["n2"] == "" {
		t.Fatalf("rejection body missing the current view: %+v", rej)
	}
	if _, dead := rej.Members["n3"]; dead {
		t.Fatalf("rejection view still lists the dead member: %+v", rej)
	}
	if nodes[0].node.epochRejects.Load() == 0 {
		t.Fatal("epoch rejection counter did not move")
	}

	// The current epoch passes.
	if resp := fill(rej.Epoch); resp.StatusCode != http.StatusOK {
		t.Fatalf("current-epoch fill answered %d, want 200", resp.StatusCode)
	}
}

// TestRejoinHandshakeReadmitsAndTruncatesStaleJournal is the full
// restart story: a node dies holding accepted-but-unfinished jobs, a
// follower adopts them, and the node comes back presenting its stale
// journal. The handshake must re-admit it at a bumped epoch, return
// exactly the adopted job IDs, and DropSuperseded must truncate the
// stale replayed copies so every ID has one cluster-wide holder.
func TestRejoinHandshakeReadmitsAndTruncatesStaleJournal(t *testing.T) {
	nodes := startCluster(t, 3, true, func(c *service.Config) { c.Workers = 1 })
	victim := nodes[2] // "n3"

	// Pin every node's single worker so queued jobs stay pending: on the
	// victim they queue behind the pin, and a peer it offloads them to
	// queues them behind its own pin — nothing completes until cleanup.
	for _, tn := range nodes {
		pin, err := tn.svc.Submit(hardTestProblem(t), service.SubmitOptions{
			Mode: service.ModeMaxIsolation, Timeout: 5 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			pin.Cancel()
			<-pin.Done()
		}()
	}

	// Two quick, sourced jobs accepted by the victim but never finished.
	staleIDs := map[string]bool{}
	for i := 0; i < 2; i++ {
		p, perr := spec.Parse(strings.NewReader(clusterSpec))
		if perr != nil {
			t.Fatal(perr)
		}
		p.Thresholds.CostBudget += int64(i)
		var sb strings.Builder
		if werr := spec.WriteProblem(&sb, p); werr != nil {
			t.Fatal(werr)
		}
		j, jerr := victim.svc.Submit(p, service.SubmitOptions{
			Timeout: 2 * time.Minute,
			Source:  &service.JobSource{Spec: sb.String()},
		})
		if jerr != nil {
			t.Fatal(jerr)
		}
		staleIDs[j.ID] = true
	}

	// Wait until the victim's journal (pin + 2 submits) reached both
	// followers, then snapshot it — this byte-for-byte copy is the stale
	// journal the restarted node will present.
	waitFor(t, "journal shipped to both followers", 10*time.Second, func() bool {
		for _, tn := range nodes[:2] {
			if recs, err := tn.node.shadows.records(victim.id); err != nil || len(recs) < 3 {
				return false
			}
		}
		return true
	})
	staleJournal, err := os.ReadFile(victim.svc.Journal().Path())
	if err != nil {
		t.Fatal(err)
	}

	victim.kill()
	waitFor(t, "death view and adoption on the survivors", 10*time.Second, func() bool {
		var takeovers int64
		for _, tn := range nodes[:2] {
			takeovers += tn.node.takeovers.Load()
			if tn.node.epoch() < 1 {
				return false
			}
		}
		return takeovers == 1
	})

	// Restart "n3" elsewhere with the stale journal. OpenHeld replays it
	// but keeps the workers parked — exactly confserved's -join sequence.
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.wal")
	if err := os.MkdirAll(filepath.Dir(jpath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, staleJournal, 0o644); err != nil {
		t.Fatal(err)
	}
	svc2, err := service.OpenHeld(service.Config{
		Workers: 1, QueueDepth: 16, NodeID: "n3", JournalPath: jpath,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if ok, why := svc2.Ready(); ok {
		t.Fatal("held service reports ready before the join handshake")
	} else if !strings.Contains(why, "join") {
		t.Fatalf("held service not-ready reason %q, want the join gate", why)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node2, err := New(svc2, Config{
		NodeID:            "n3",
		Peers:             map[string]string{"n3": "http://" + ln.Addr().String()},
		HeartbeatInterval: 25 * time.Millisecond,
		SuspectAfter:      2,
		DeadAfter:         4,
		Logf:              func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := &http.Server{Handler: node2.Handler(svc2.Handler())}
	go srv2.Serve(ln)
	defer func() {
		srv2.Close()
		node2.Stop()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	adopted, err := node2.Join(ctx, []string{nodes[0].url, nodes[1].url})
	if err != nil {
		t.Fatalf("rejoin refused: %v", err)
	}
	for id := range staleIDs {
		if !slices.Contains(adopted, id) {
			t.Fatalf("adopted IDs %v missing unfinished job %s", adopted, id)
		}
	}
	if dropped := svc2.DropSuperseded(adopted); dropped != len(staleIDs) {
		t.Fatalf("dropped %d stale replayed jobs, want %d", dropped, len(staleIDs))
	}
	svc2.StartWorkers()
	node2.Start()
	// The dropped jobs drain through the freshly started workers; the
	// replay gate lifts as soon as the last one is retired.
	waitFor(t, "rejoined service ready", 10*time.Second, func() bool {
		ok, _ := svc2.Ready()
		return ok
	})

	// The whole cluster converges on the join view: bumped epoch, n3
	// back in the member set at its new URL.
	waitFor(t, "cluster converges on the join view", 10*time.Second, func() bool {
		want := node2.epoch()
		if want < 2 {
			return false
		}
		for _, tn := range nodes[:2] {
			v := tn.node.currentView()
			if v.epoch != want || v.members["n3"] != "http://"+ln.Addr().String() {
				return false
			}
		}
		return true
	})
}

// TestStopDuringRejoinReturnsPromptly: a node that sees a view excluding
// it re-runs the join handshake in the background, and Stop must cut that
// handshake short instead of waiting out an RPC timeout on each seed. The
// seeds here accept connections and never answer.
func TestStopDuringRejoinReturnsPromptly(t *testing.T) {
	const rpcTimeout = 3 * time.Second
	accepted := make(chan struct{}, 1)
	var seeds []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			var conns []net.Conn
			defer func() {
				for _, c := range conns {
					c.Close()
				}
			}()
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				conns = append(conns, c)
				select {
				case accepted <- struct{}{}:
				default:
				}
			}
		}()
		seeds = append(seeds, "http://"+ln.Addr().String())
	}
	svc, err := service.Open(service.Config{Workers: 1, NodeID: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	node, err := New(svc, Config{
		NodeID:     "n1",
		Peers:      map[string]string{"n1": "http://n1"},
		RPCTimeout: rpcTimeout,
		Logf:       func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}

	node.installView(newView(1, map[string]string{"n2": seeds[0], "n3": seeds[1]}), "a view without n1")
	select {
	case <-accepted:
	case <-time.After(rpcTimeout):
		t.Fatal("the re-join never reached a seed")
	}
	start := time.Now()
	node.Stop()
	if d := time.Since(start); d > rpcTimeout/3 {
		t.Fatalf("Stop took %v during a background re-join, want well inside the %v RPC timeout", d, rpcTimeout)
	}
}
