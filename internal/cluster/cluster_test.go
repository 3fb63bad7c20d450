package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"configsynth/internal/core"
	"configsynth/internal/netgen"
	"configsynth/internal/service"
	"configsynth/internal/spec"
)

// End-to-end tests: three real confserved services joined over loopback
// HTTP, exercising fingerprint routing, peer cache fill, work stealing,
// and journal takeover exactly as three processes would — just without
// the processes (scripts/cluster_smoke.sh covers the kill -9 variant).

const clusterSpec = `
devices 3
order 1 2 2
order 2 3 2
costs 5 8 6
nodes 4 2
link 1 5
link 2 5
link 3 6
link 4 6
link 5 6
services 1
require 1 3
require 2 4
sliders 2.5 5 30
`

type testNode struct {
	id   string
	url  string
	svc  *service.Service
	node *Node
	srv  *http.Server
	ln   net.Listener
}

// kill simulates a SIGKILL for cluster purposes: the node stops
// serving and stops its cluster loops, but its service is neither
// drained nor closed — pending work stays pending, exactly as a killed
// process would leave it.
func (tn *testNode) kill() {
	tn.srv.Close()
	tn.node.Stop()
}

func startCluster(t *testing.T, size int, journaled bool, tweak func(*service.Config)) []*testNode {
	t.Helper()
	lns := make([]net.Listener, size)
	peers := make(map[string]string, size)
	ids := make([]string, size)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		ids[i] = fmt.Sprintf("n%d", i+1)
		peers[ids[i]] = "http://" + ln.Addr().String()
	}
	dir := t.TempDir()
	nodes := make([]*testNode, size)
	for i, id := range ids {
		scfg := service.Config{Workers: 2, QueueDepth: 16, NodeID: id}
		if journaled {
			scfg.JournalPath = filepath.Join(dir, id, "journal.wal")
		}
		if tweak != nil {
			tweak(&scfg)
		}
		svc, err := service.Open(scfg)
		if err != nil {
			t.Fatal(err)
		}
		node, err := New(svc, Config{
			NodeID:            id,
			Peers:             peers,
			HeartbeatInterval: 25 * time.Millisecond,
			SuspectAfter:      2,
			DeadAfter:         4,
			Logf:              func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: node.Handler(svc.Handler())}
		go srv.Serve(lns[i])
		node.Start()
		nodes[i] = &testNode{id: id, url: peers[id], svc: svc, node: node, srv: srv, ln: lns[i]}
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			tn.srv.Close()
			tn.node.Stop()
			tn.svc.Close()
		}
	})
	return nodes
}

func postSpec(t *testing.T, base string) (*service.Result, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/synthesize?timeout=60s", "text/plain", strings.NewReader(clusterSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d: %s", base, resp.StatusCode, body)
	}
	var res service.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decoding result: %v: %s", err, body)
	}
	return &res, resp.Header.Get("X-Cache")
}

func specFingerprint(t *testing.T) string {
	t.Helper()
	p, err := spec.Parse(strings.NewReader(clusterSpec))
	if err != nil {
		t.Fatal(err)
	}
	return spec.Fingerprint(p)
}

// hardTestProblem pins a worker when submitted as ModeMaxIsolation:
// the exact objective with an unlimited probe budget runs for minutes,
// so only cancellation ends it.
func hardTestProblem(t *testing.T) *core.Problem {
	t.Helper()
	p, err := netgen.Generate(netgen.Config{
		Hosts: 20, Routers: 10, Seed: 7, CRFraction: 0.15,
		Thresholds: core.Thresholds{IsolationTenths: 60, UsabilityTenths: 60, CostBudget: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Options.ProbeBudget = -1
	return p
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestClusterRoutesRepeatProblemsToOneOwner(t *testing.T) {
	nodes := startCluster(t, 3, false, nil)
	fp := specFingerprint(t)
	owner := nodes[0].node.ring.owner(fp, nil)

	// The same problem posted once to each node: every arrival at a
	// non-owner hops to the owner, so the cluster solves it exactly once
	// and answers the repeats from the owner's cache.
	for i, tn := range nodes {
		res, xcache := postSpec(t, tn.url)
		if res.Status != "sat" {
			t.Fatalf("node %s: status %q", tn.id, res.Status)
		}
		if i > 0 && xcache != "hit" {
			t.Fatalf("repeat via %s was re-solved (X-Cache=%s)", tn.id, xcache)
		}
	}
	var forwarded, hits, misses int64
	for _, tn := range nodes {
		st := tn.node.stats()
		forwarded += st.RequestsForwarded
		svcStats := tn.svc.Stats()
		hits += svcStats.Cache.Hits
		misses += svcStats.Cache.Misses
		if tn.id == owner && svcStats.JobsCompleted == 0 {
			t.Fatalf("ring owner %s completed no jobs", owner)
		}
	}
	if forwarded != 2 {
		t.Fatalf("forwarded %d requests, want exactly 2 (one per non-owner)", forwarded)
	}
	if hits < 2 {
		t.Fatalf("cluster-wide cache hits = %d, want >= 2", hits)
	}
}

func TestClusterPeerCacheFillAnswersColdLocalMiss(t *testing.T) {
	nodes := startCluster(t, 3, false, nil)
	fp := specFingerprint(t)
	owner := nodes[0].node.ring.owner(fp, nil)

	// Solve on the owner (routed), then submit the same problem
	// programmatically on a non-owner: no HTTP routing is involved, so
	// the only way it can avoid a local solve is the peer-fill RPC.
	if res, _ := postSpec(t, nodes[0].url); res.Status != "sat" {
		t.Fatalf("seed solve: %q", res.Status)
	}
	var other *testNode
	for _, tn := range nodes {
		if tn.id != owner {
			other = tn
			break
		}
	}
	p, err := spec.Parse(strings.NewReader(clusterSpec))
	if err != nil {
		t.Fatal(err)
	}
	j, err := other.svc.Submit(p, service.SubmitOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	res, jerr := j.Result()
	if jerr != nil {
		t.Fatal(jerr)
	}
	if res.Status != "sat" || !res.Cached {
		t.Fatalf("peer-filled job: status=%q cached=%v, want a sat cache fill", res.Status, res.Cached)
	}
	if st := other.node.stats(); st.FillHits == 0 {
		t.Fatalf("non-owner %s reports no fill hits: %+v", other.id, st)
	}
	if st := other.svc.Stats(); st.PeerFillHits == 0 {
		t.Fatal("service peer-fill counter did not move")
	}
}

func TestClusterJournalTakeoverAfterKill(t *testing.T) {
	nodes := startCluster(t, 3, true, nil)
	byID := map[string]*testNode{}
	for _, tn := range nodes {
		byID[tn.id] = tn
	}
	victim := nodes[0]
	follower := byID[victim.node.ring.successors(victim.id, 1)[0]]
	fp := specFingerprint(t)

	// Solve directly on the victim (loop-guard header bypasses routing)
	// so the proven result lands in the victim's journal.
	req, _ := http.NewRequest(http.MethodPost, victim.url+"/v1/synthesize?timeout=60s", strings.NewReader(clusterSpec))
	req.Header.Set(forwardedHeader, "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("victim solve: %d: %s", resp.StatusCode, body)
	}

	// Wait until the WAL shipper has delivered the journal (submit +
	// result records) to the follower's shadow.
	waitFor(t, "journal shipped to follower", 10*time.Second, func() bool {
		recs, err := follower.node.shadows.records(victim.id)
		return err == nil && len(recs) >= 2
	})

	if _, ok := follower.svc.CacheLookup(fp, service.ModeSolve); ok {
		t.Fatal("follower had the result cached before takeover; test proves nothing")
	}

	victim.kill()
	waitFor(t, "takeover", 10*time.Second, func() bool {
		return follower.node.takeovers.Load() == 1
	})
	if _, ok := follower.svc.CacheLookup(fp, service.ModeSolve); !ok {
		t.Fatal("adopted proven result did not seed the follower's cache")
	}

	// The death must fire takeover exactly once, on exactly one node.
	time.Sleep(250 * time.Millisecond)
	var total int64
	for _, tn := range nodes[1:] {
		total += tn.node.takeovers.Load()
	}
	if total != 1 {
		t.Fatalf("%d takeovers across survivors, want exactly 1", total)
	}
}

func TestClusterStealsFromOverloadedPeer(t *testing.T) {
	// One worker on every node; the victim's worker is pinned by a job
	// that holds it long enough for idle peers to steal the queue.
	nodes := startCluster(t, 3, false, func(c *service.Config) { c.Workers = 1 })
	victim := nodes[0]

	hard := hardTestProblem(t)
	pin, err := victim.svc.Submit(hard, service.SubmitOptions{
		Mode:    service.ModeMaxIsolation,
		Timeout: 5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		pin.Cancel()
		<-pin.Done()
	}()

	// Distinct quick problems queue behind the pinned worker.
	var queued []*service.Job
	for i := 0; i < 3; i++ {
		p, perr := spec.Parse(strings.NewReader(clusterSpec))
		if perr != nil {
			t.Fatal(perr)
		}
		p.Thresholds.CostBudget += int64(i) // distinct fingerprints
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
		queued = append(queued, j)
	}

	for _, j := range queued {
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("queued job %s never completed; stealing did not happen", j.ID)
		}
		res, jerr := j.Result()
		if jerr != nil {
			t.Fatalf("job %s: %v", j.ID, jerr)
		}
		if res.Status != "sat" {
			t.Fatalf("job %s: status %q", j.ID, res.Status)
		}
	}
	var stolen int64
	for _, tn := range nodes[1:] {
		stolen += tn.node.stats().JobsStolen
	}
	if stolen == 0 {
		t.Fatal("no peer reports stolen jobs")
	}
	if st := victim.svc.Stats(); st.JobsStolenCompleted == 0 {
		t.Fatalf("victim reports no remotely completed jobs: %+v", st)
	}
}
