package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"configsynth/internal/service"
	"configsynth/internal/spec"
	"configsynth/internal/wal"
)

// The in-process cluster harness. Every simulated node is a real
// service.Service and a real Node; the two http.Clients of each node get
// an in-memory RoundTripper (simTransport) that calls the target node's
// Handler directly, so a link can go down and a single request or
// response can be lost without a socket. Start is never called: the
// test drives heartbeatAll, ship.shipPending and offloadOnce round by
// round and lets the cluster go quiet between events, so a failing
// TestClusterSim/seed=N replays its schedule from its name.

// simLoss is a one-shot fault on the next request over one directed link.
type simLoss int

const (
	loseRequest  simLoss = iota + 1 // dropped before the target's handler runs
	loseResponse                    // the handler ran; its answer is dropped
)

// simNet is the simulated network: the nodes, which links are down, which
// single messages are to be lost, and one log all nodes write to.
type simNet struct {
	t   *testing.T
	dir string

	mu    sync.Mutex
	nodes map[string]*simNode
	down  map[[2]string]bool    // undirected links, as sorted pairs
	loss  map[[2]string]simLoss // directed (from, to)
	log   []string
}

// simNode is one incarnation of a node; a rejoin boots a new one under the
// same ID and URL.
type simNode struct {
	id   string
	svc  *service.Service
	node *Node
	h    http.Handler
	dead bool
	// journal is the node's journal as it stood when it was killed: what
	// a restart after SIGKILL finds on disk.
	journal []byte
}

func simURL(id string) string { return "http://" + id }

func linkOf(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// newSimNet boots one journaled node per ID, all members of the epoch-0
// view.
func newSimNet(t *testing.T, ids ...string) *simNet {
	t.Helper()
	sn := &simNet{
		t:     t,
		dir:   t.TempDir(),
		nodes: map[string]*simNode{},
		down:  map[[2]string]bool{},
		loss:  map[[2]string]simLoss{},
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("cluster log:\n%s", strings.Join(sn.logLines(), "\n"))
		}
		for _, n := range sn.live() {
			n.node.Stop()
			n.svc.Close()
		}
	})
	peers := sn.peers(ids...)
	for _, id := range ids {
		sn.boot(id, peers, false)
	}
	return sn
}

func (sn *simNet) peers(ids ...string) map[string]string {
	m := make(map[string]string, len(ids))
	for _, id := range ids {
		m[id] = simURL(id)
	}
	return m
}

func (sn *simNet) logLines() []string {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return slices.Clone(sn.log)
}

func (sn *simNet) logf(format string, args ...any) {
	sn.mu.Lock()
	sn.log = append(sn.log, fmt.Sprintf(format, args...))
	sn.mu.Unlock()
}

// boot opens a journaled service in the node's directory (held: workers
// parked, as confserved -join opens it) and wires a Node around it whose
// clients ride the simulated network.
func (sn *simNet) boot(id string, peers map[string]string, held bool) *simNode {
	sn.t.Helper()
	open := service.Open
	if held {
		open = service.OpenHeld
	}
	svc, err := open(service.Config{
		Workers: 1, QueueDepth: 64, NodeID: id,
		JournalPath: filepath.Join(sn.dir, id, "journal.wal"),
	})
	if err != nil {
		sn.t.Fatal(err)
	}
	node, err := New(svc, Config{
		NodeID:            id,
		Peers:             peers,
		HeartbeatInterval: 2 * time.Millisecond, // only paces retries: no loop runs
		RPCTimeout:        time.Minute,
		SuspectAfter:      2,
		DeadAfter:         4,
		Logf: func(format string, args ...any) {
			sn.logf(id+": "+format, args...)
		},
	})
	if err != nil {
		sn.t.Fatal(err)
	}
	n := &simNode{id: id, svc: svc, node: node, h: node.Handler(svc.Handler())}
	node.rpcClient.Transport = simTransport{sn, n}
	node.fwdClient.Transport = simTransport{sn, n}
	sn.mu.Lock()
	sn.nodes[id] = n
	sn.mu.Unlock()
	return n
}

// live lists the nodes that are up, by ID.
func (sn *simNet) live() []*simNode {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	var out []*simNode
	for _, n := range sn.nodes {
		if !n.dead {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].id < out[k].id })
	return out
}

func (sn *simNet) setLink(a, b string, up bool) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if up {
		delete(sn.down, linkOf(a, b))
	} else {
		sn.down[linkOf(a, b)] = true
	}
}

func (sn *simNet) lose(from, to string, kind simLoss) {
	sn.mu.Lock()
	sn.loss[[2]string{from, to}] = kind
	sn.mu.Unlock()
}

// kill is SIGKILL for cluster purposes: the node stops answering and
// sending at once, its journal is kept as it stood, and then its loops
// and service are torn down.
func (sn *simNet) kill(id string) {
	sn.t.Helper()
	sn.mu.Lock()
	n := sn.nodes[id]
	n.dead = true
	sn.mu.Unlock()
	data, err := os.ReadFile(n.svc.Journal().Path())
	if err != nil {
		sn.t.Fatal(err)
	}
	n.journal = data
	n.node.Stop()
	n.svc.Close()
	sn.logf("sim: killed %s", id)
}

// rejoin restarts a killed node on its stale journal and runs the join
// handshake against every live node, exactly as confserved -join does:
// OpenHeld replays the journal with the workers parked, Join returns the
// IDs the cluster adopted meanwhile, DropSuperseded truncates them.
func (sn *simNet) rejoin(id string) {
	sn.t.Helper()
	old := sn.nodes[id]
	if err := os.WriteFile(old.svc.Journal().Path(), old.journal, 0o644); err != nil {
		sn.t.Fatal(err)
	}
	var seeds []string
	for _, n := range sn.live() {
		seeds = append(seeds, simURL(n.id))
	}
	n := sn.boot(id, sn.peers(id), true)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	adopted, err := n.node.Join(ctx, seeds)
	if err != nil {
		sn.t.Fatalf("rejoin of %s: %v", id, err)
	}
	dropped := n.svc.DropSuperseded(adopted)
	n.svc.StartWorkers()
	sn.logf("sim: %s rejoined, %d adopted elsewhere, %d dropped", id, len(adopted), dropped)
}

// simTransport is one node's side of the simulated network.
type simTransport struct {
	net  *simNet
	from *simNode
}

func (tr simTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	to := req.URL.Host
	key := [2]string{tr.from.id, to}
	tr.net.mu.Lock()
	dst := tr.net.nodes[to]
	up := dst != nil && !dst.dead && !tr.from.dead && !tr.net.down[linkOf(tr.from.id, to)]
	loss := tr.net.loss[key]
	delete(tr.net.loss, key)
	tr.net.mu.Unlock()
	if !up || loss == loseRequest {
		return nil, fmt.Errorf("sim: %s -> %s: unreachable", tr.from.id, to)
	}
	in := req.Clone(req.Context())
	in.RequestURI = req.URL.RequestURI()
	if in.Body == nil {
		in.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	dst.h.ServeHTTP(rec, in)
	if loss == loseResponse {
		return nil, fmt.Errorf("sim: %s -> %s: response lost", tr.from.id, to)
	}
	return rec.Result(), nil
}

// quiesce waits until the cluster has gone quiet: no live service has a
// queued job and no goroutine but this one is running Node code (a
// rejoin, a worker's peer fill) or a service's runJob (an offload's
// among them).
// Only then are the nodes' WaitGroups waited on, so that wait never
// blocks while another node's goroutine could still add to one.
func (sn *simNet) quiesce() {
	sn.t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Minute); sn.busy(buf); {
		if time.Now().After(deadline) {
			sn.t.Fatalf("cluster never went quiet:\n%s", buf)
		}
		time.Sleep(time.Millisecond)
	}
	for _, n := range sn.live() {
		n.node.wg.Wait()
	}
}

func (sn *simNet) busy(buf []byte) bool {
	for _, n := range sn.live() {
		if n.svc.QueueLen() > 0 {
			return true
		}
	}
	buf = buf[:runtime.Stack(buf, true)]
	// The first goroutine in the dump is this one.
	for _, g := range bytes.Split(buf, []byte("\n\n"))[1:] {
		if bytes.Contains(g, []byte("internal/cluster.(*Node)")) ||
			bytes.Contains(g, []byte("internal/service.(*Service).runJob")) {
			return true
		}
	}
	return false
}

// each runs fn on every live node in ID order, letting the cluster go
// quiet after each one.
func (sn *simNet) each(fn func(*simNode)) {
	for _, n := range sn.live() {
		fn(n)
		sn.quiesce()
	}
}

func (sn *simNet) heartbeatRound() { sn.each(func(n *simNode) { n.node.heartbeatAll() }) }
func (sn *simNet) shipRound()      { sn.each(func(n *simNode) { n.node.ship.shipPending() }) }
func (sn *simNet) offloadRound()   { sn.each(func(n *simNode) { n.node.offloadOnce() }) }

// variantSpec is clusterSpec with its cost budget raised by i: a distinct
// fingerprint per i, solved in milliseconds.
func variantSpec(t *testing.T, i int) string {
	t.Helper()
	p, err := spec.Parse(strings.NewReader(clusterSpec))
	if err != nil {
		t.Fatal(err)
	}
	p.Thresholds.CostBudget += int64(i)
	var sb strings.Builder
	if err := spec.WriteProblem(&sb, p); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// submit posts variant i to n as an asynchronous client would, routed
// through n's cluster handler unless pinned (the forwarding loop guard
// keeps it on n). It returns the accepted job ID, or "" if n refused.
func (sn *simNet) submit(n *simNode, i int, pinned bool) string {
	req := httptest.NewRequest(http.MethodPost, "/v1/synthesize?async=1&timeout=15s", strings.NewReader(variantSpec(sn.t, i)))
	if pinned {
		req.Header.Set(forwardedHeader, "sim")
	}
	rec := httptest.NewRecorder()
	n.h.ServeHTTP(rec, req)
	var resp struct {
		JobID string `json:"job_id"`
	}
	if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
		return ""
	}
	return resp.JobID
}

// holders lists the live nodes that have job id registered, and whether
// it is terminal on every one of them.
func (sn *simNet) holders(id string) (on []string, terminal bool) {
	terminal = true
	for _, n := range sn.live() {
		j, ok := n.svc.Job(id)
		if !ok {
			continue
		}
		on = append(on, n.id)
		switch j.State() {
		case service.StateDone, service.StateFailed, service.StateCanceled:
		default:
			terminal = false
		}
	}
	return on, terminal
}

// journalIDs reads the submit and result IDs out of journal records.
func journalIDs(recs []wal.Record) (submitted, finished map[string]bool) {
	submitted, finished = map[string]bool{}, map[string]bool{}
	for _, r := range recs {
		var rec struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(r.Data, &rec) != nil || rec.ID == "" {
			continue
		}
		switch r.Kind {
		case "submit":
			submitted[rec.ID] = true
		case "result":
			finished[rec.ID] = true
		}
	}
	return submitted, finished
}

// TestClusterSim runs seeded schedules on a four-node journaled cluster
// taking submits: heartbeat, ship and offload rounds, lost requests and
// lost responses, a partitioned link that heals, at most two kills —
// one, two apart, or two whose deaths different nodes detect in the same
// round (the equal-epoch view merge) — and sometimes a stale rejoin
// through Join and DropSuperseded. After the schedule every link heals
// and rounds run until the views agree; then the safety properties must
// hold (see check).
func TestClusterSim(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := &simRun{simNet: newSimNet(t, "n1", "n2", "n3", "n4"), rng: rand.New(rand.NewSource(int64(seed)))}
			r.run()
			r.settle()
			r.check()
		})
	}
}

// simRun is one schedule's state: what the clients were told, and what
// each victim's followers held when it died.
type simRun struct {
	*simNet
	rng      *rand.Rand
	variants int
	accepted []string
	victims  []simVictim
	healIn   map[[2]string]int // partitioned link → heartbeat rounds left
}

type simVictim struct {
	id string
	// acked maps each follower alive at the kill to the IDs its shadow
	// held submit and result records for.
	acked map[string][2]map[string]bool
}

func (r *simRun) event(format string, args ...any) { r.logf("sim: "+format, args...) }

func (r *simRun) pick(ns []*simNode) *simNode { return ns[r.rng.Intn(len(ns))] }

func (r *simRun) killed(id string) bool {
	for _, v := range r.victims {
		if v.id == id {
			return true
		}
	}
	return false
}

// run plays the schedule: random events around one death plan, placed
// by the seed.
func (r *simRun) run() {
	r.healIn = map[[2]string]int{}
	deathAt, plan := 3+r.rng.Intn(8), r.rng.Intn(3)
	secondAt, rejoinAt := deathAt+2+r.rng.Intn(6), -1
	if r.rng.Intn(2) == 0 {
		rejoinAt = secondAt + 2 + r.rng.Intn(6)
	}
	for step := 0; step < 28; step++ {
		switch {
		case step == deathAt && plan == 2:
			r.mergedDeaths()
		case step == deathAt, step == secondAt && plan == 1:
			var cands []*simNode
			for _, n := range r.live() {
				if !r.killed(n.id) {
					cands = append(cands, n)
				}
			}
			r.kill(r.pick(cands).id)
		case step == rejoinAt:
			r.rejoinVictim()
		default:
			r.randomEvent()
		}
	}
}

func (r *simRun) randomEvent() {
	live := r.live()
	switch k := r.rng.Intn(100); {
	case k < 25:
		for i := 1 + r.rng.Intn(3); i > 0; i-- {
			v := r.variants
			if v > 0 && r.rng.Intn(3) == 0 {
				v = r.rng.Intn(v) // a repeat: a cache hit, a forward or a peer fill
			} else {
				r.variants++
			}
			entry := r.pick(live)
			r.event("submit variant %d via %s", v, entry.id)
			if id := r.submit(entry, v, false); id != "" {
				r.accepted = append(r.accepted, id)
			}
		}
	case k < 45:
		r.heartbeat()
	case k < 57:
		r.event("ship round")
		r.shipRound()
	case k < 65:
		r.event("offload round")
		r.offloadRound()
	case k < 75:
		// A queue builds on one node; it learns which peers are idle and
		// offloads to one before its worker drains the queue.
		r.burst(r.pick(live), 4)
		r.quiesce()
	case k < 88:
		from, to := r.pick(live), r.pick(live)
		if from == to {
			return
		}
		kind := simLoss(1 + r.rng.Intn(2))
		r.event("lose the next %s from %s to %s", map[simLoss]string{loseRequest: "request", loseResponse: "response"}[kind], from.id, to.id)
		r.lose(from.id, to.id, kind)
	default:
		// A partition heals before DeadAfter missed beats and never
		// overlaps a pending death: a follower that cannot reach its live
		// co-follower adopts alone, by design (the two-failure path).
		a, b := r.pick(live), r.pick(live)
		if a == b || len(r.healIn) > 0 || r.pendingDeath() {
			return
		}
		rounds := 1 + r.rng.Intn(2)
		r.event("partition %s-%s for %d heartbeat rounds", a.id, b.id, rounds)
		r.setLink(a.id, b.id, false)
		r.healIn[linkOf(a.id, b.id)] = rounds
	}
}

func (r *simRun) heartbeat() {
	r.event("heartbeat round")
	for _, n := range r.live() {
		r.guard()
		n.node.heartbeatAll()
		r.quiesce()
	}
	for l, left := range r.healIn {
		if left <= 1 {
			r.setLink(l[0], l[1], true)
			delete(r.healIn, l)
		} else {
			r.healIn[l] = left - 1
		}
	}
}

// guard lifts the faults on any link about to cost a live peer its
// DeadAfter-th missed beat in a row: the random schedules kill nodes
// only on purpose. (A live node declared dead has its journal adopted
// while it still runs it — the split the rejoin handshake heals;
// TestClusterSimFalseDeathThenRealDeath plays that path.)
func (r *simRun) guard() {
	for _, a := range r.live() {
		for _, b := range r.live() {
			p := a.node.mem.lookup(b.id)
			if p == nil {
				continue
			}
			p.mu.Lock()
			missed := p.missed
			p.mu.Unlock()
			if missed >= a.node.cfg.DeadAfter-1 {
				r.setLink(a.id, b.id, true)
				delete(r.healIn, linkOf(a.id, b.id))
				r.mu.Lock()
				delete(r.loss, [2]string{a.id, b.id})
				r.mu.Unlock()
			}
		}
	}
}

func (r *simRun) healAll() {
	for l := range r.healIn {
		r.setLink(l[0], l[1], true)
		delete(r.healIn, l)
	}
}

// pendingDeath reports whether a live node's view still holds a dead
// member.
func (r *simRun) pendingDeath() bool {
	for _, n := range r.live() {
		for id := range n.node.currentView().members {
			r.mu.Lock()
			dead := r.nodes[id].dead
			r.mu.Unlock()
			if dead {
				return true
			}
		}
	}
	return false
}

// burst queues k jobs on x, then every live node heartbeats and offloads
// to an idle peer, without waiting for any of it to finish.
func (r *simRun) burst(x *simNode, k int) {
	r.event("burst of %d on %s, then heartbeats and offloads", k, x.id)
	for ; k > 0; k-- {
		if id := r.submit(x, r.variants, true); id != "" {
			r.accepted = append(r.accepted, id)
		}
		r.variants++
	}
	for _, n := range r.live() {
		r.guard()
		n.node.heartbeatAll()
	}
	for _, n := range r.live() {
		n.node.offloadOnce()
	}
}

// kill takes nodes down mid-load: a burst on a survivor that offloads to
// the victims, idle, and a burst on each victim; then every node ships —
// in a live cluster an append ships at once through the journal notify
// hook, so only a lost message leaves a follower behind. None of it is
// waited for: the victims die holding queued, running and offloaded
// jobs, and offloads in flight to them.
// What each surviving follower then holds is recorded for check.
func (r *simRun) kill(ids ...string) {
	r.healAll()
	var others []*simNode
	for _, n := range r.live() {
		if !slices.Contains(ids, n.id) {
			others = append(others, n)
		}
	}
	r.burst(r.pick(others), 4)
	for _, id := range ids {
		r.burst(r.nodes[id], 4)
	}
	for _, n := range r.live() {
		n.node.ship.shipPending()
	}
	for _, id := range ids {
		v := simVictim{id: id, acked: map[string][2]map[string]bool{}}
		for _, f := range r.nodes[id].node.curRing().successors(id, replicationFactor) {
			if fn := r.nodes[f]; !fn.dead && !slices.Contains(ids, f) {
				recs, _ := fn.node.shadows.records(id)
				sub, fin := journalIDs(recs)
				v.acked[f] = [2]map[string]bool{sub, fin}
			}
		}
		r.victims = append(r.victims, v)
		r.simNet.kill(id)
	}
	r.quiesce()
}

// mergedDeaths kills two nodes and has each survivor's detector fire for
// a different one before either hears the other: both mint an epoch-1
// death view, and the merge keeps one of them.
func (r *simRun) mergedDeaths() {
	live := r.live()
	r.rng.Shuffle(len(live), func(i, k int) { live[i], live[k] = live[k], live[i] })
	x, y, a, b := live[0], live[1], live[2], live[3]
	r.event("kill %s and %s; %s detects %s and %s detects %s in the same round", x.id, y.id, a.id, x.id, b.id, y.id)
	r.kill(x.id, y.id)
	for _, d := range [][2]*simNode{{a, x}, {b, y}} {
		// DeadAfter missed beats in a row: the last reports the death, and
		// the detector proposes its death view as heartbeatAll would.
		for i := 0; i < d[0].node.cfg.DeadAfter; i++ {
			if d[0].node.mem.beatMissed(d[1].id) {
				d[0].node.handleDeath(d[1].id)
			}
		}
		r.quiesce()
	}
}

// rejoinVictim waits until every live view has dropped the dead, then
// restarts one victim on its stale journal.
func (r *simRun) rejoinVictim() {
	for i := 0; r.pendingDeath(); i++ {
		if i == 50 {
			r.t.Fatal("deaths never settled before the rejoin")
		}
		r.heartbeat()
	}
	v := r.victims[r.rng.Intn(len(r.victims))]
	r.event("rejoin %s on its stale journal", v.id)
	r.rejoin(v.id)
	r.quiesce()
}

// settle heals everything and runs rounds until every live node holds
// the same view of exactly the live set and every registered job is
// terminal.
func (r *simRun) settle() {
	r.healAll()
	r.mu.Lock()
	clear(r.loss)
	r.mu.Unlock()
	r.event("settle")
	for deadline := time.Now().Add(90 * time.Second); time.Now().Before(deadline); {
		r.heartbeatRound()
		r.shipRound()
		r.offloadRound()
		if r.viewsAgree() == "" && r.allTerminal() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// viewsAgree returns "" when every live node holds one view whose members
// are exactly the live nodes, else what differs.
func (r *simRun) viewsAgree() string {
	live := r.live()
	want := make([]string, len(live))
	for i, n := range live {
		want[i] = n.id
	}
	first := live[0].node.currentView()
	for _, n := range live {
		v := n.node.currentView()
		if v.epoch != first.epoch || v.canon() != first.canon() || !slices.Equal(v.ids(), want) {
			return fmt.Sprintf("%s holds epoch %d %v, %s holds epoch %d %v, live %v",
				live[0].id, first.epoch, first.ids(), n.id, v.epoch, v.ids(), want)
		}
	}
	return ""
}

func (r *simRun) allTerminal() bool {
	for _, n := range r.live() {
		for _, id := range n.svc.JobIDs() {
			if _, terminal := r.holders(id); !terminal {
				return false
			}
		}
	}
	return true
}

// check asserts, after settling:
//   - every live node holds the same view, and it is exactly the live set;
//   - every live node names the same owner for every fingerprint;
//   - every job ID a client was given by a node that never died, and
//     every ID whose submit record a surviving follower had acked and
//     whose result no follower had, is registered on exactly one live
//     node and is terminal there, unless its adopter died and no
//     surviving follower of the adopter held the adopted submit; an
//     acked finished ID is on at most one;
//   - each victim's journal is adopted at most once, and exactly once
//     when a surviving follower held any of it; no live node's is.
func (r *simRun) check() {
	t := r.t
	if d := r.viewsAgree(); d != "" {
		t.Errorf("views disagree after settling: %s", d)
	}
	live := r.live()
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("fp-%d", i)
		if i < r.variants {
			key = spec.Fingerprint(mustParse(t, variantSpec(t, i)))
		}
		want := live[0].node.curRing().owner(key, live[0].node.mem.alive)
		for _, n := range live[1:] {
			if got := n.node.curRing().owner(key, n.node.mem.alive); got != want {
				t.Errorf("%s: %s names owner %s, %s names %s", key, live[0].id, want, n.id, got)
			}
		}
	}

	// Whether a job had finished is judged by every follower's copy, the
	// fullest one included: the follower holding more records adopts, and
	// Adopt registers only the unfinished jobs.
	finished := map[string]bool{}
	for _, v := range r.victims {
		for _, ids := range v.acked {
			for id := range ids[1] {
				finished[id] = true
			}
		}
	}
	exactlyOnce, atMostOnce := map[string]bool{}, map[string]bool{}
	for _, id := range r.accepted {
		if origin, _, _ := strings.Cut(id, "-"); !r.killed(origin) {
			exactlyOnce[id] = true
		}
	}
	adoptable := map[string]bool{}
	for _, v := range r.victims {
		for f, ids := range v.acked {
			if r.killed(f) {
				continue
			}
			for id := range ids[0] {
				if finished[id] {
					atMostOnce[id] = true
				} else {
					exactlyOnce[id] = true
				}
				adoptable[v.id] = true
			}
		}
	}
	// The adopter of each victim's journal, from the log. A job adopted
	// by a node that then died before any surviving follower of it held
	// the adopted submit is lost: the co-follower yielded and dropped its
	// copy. That is the known boundary of the takeover protocol, counted
	// here, not failed; an adoption that was shipped must survive.
	adopter := map[string]string{}
	for _, line := range r.logLines() {
		var who, origin string
		if _, err := fmt.Sscanf(line, "%s cluster: took over %s", &who, &origin); err == nil {
			adopter[strings.TrimSuffix(origin, ":")] = strings.TrimSuffix(who, ":")
		}
	}
	unshipped := func(id string) bool {
		origin, _, _ := strings.Cut(id, "-")
		for _, v := range r.victims {
			if v.id != adopter[origin] {
				continue
			}
			for f, ids := range v.acked {
				if !r.killed(f) && ids[0][id] {
					return false
				}
			}
			return true
		}
		return false
	}
	for id := range exactlyOnce {
		on, terminal := r.holders(id)
		if len(on) == 0 && unshipped(id) {
			origin, _, _ := strings.Cut(id, "-")
			t.Logf("job %s lost with its adopter %s, which died before shipping the adoption", id, adopter[origin])
			continue
		}
		if len(on) != 1 || !terminal {
			t.Errorf("job %s: registered on %v (terminal %v), want exactly one live holder, terminal", id, on, terminal)
		}
	}
	for id := range atMostOnce {
		if on, _ := r.holders(id); len(on) > 1 {
			t.Errorf("finished job %s: registered on %v, want at most one live holder", id, on)
		}
	}

	for _, id := range []string{"n1", "n2", "n3", "n4"} {
		n := 0
		for _, line := range r.logLines() {
			if strings.Contains(line, "took over "+id+":") {
				n++
			}
		}
		switch {
		case !r.killed(id) && n != 0:
			t.Errorf("live node %s was taken over %d times", id, n)
		case n > 1, adoptable[id] && n != 1:
			t.Errorf("victim %s was taken over %d times, want exactly once", id, n)
		}
	}
}

// TestClusterSimFalseDeathThenRealDeath: a node declared dead while
// alive has its journal adopted, re-joins through the handshake its
// exclusion triggers, and keeps its journal — same epoch, same offsets
// — so it ships on into the adopter's shadow. When it later dies for
// real, the jobs it accepted after the re-join must be adopted, by the
// first adopter (the records shipped since its adoption) or by the
// co-follower (the shadow it rebuilt after yielding).
func TestClusterSimFalseDeathThenRealDeath(t *testing.T) {
	for _, tc := range []struct {
		name string
		// starve loses the last chunk to the first adopter, so the
		// co-follower holds more records at the real death and wins.
		starve bool
	}{{"first adopter wins again", false}, {"co-follower wins", true}} {
		t.Run(tc.name, func(t *testing.T) {
			r := &simRun{simNet: newSimNet(t, "n1", "n2", "n3", "n4")}
			x := r.nodes["n1"]
			succ := x.node.curRing().successors(x.id, replicationFactor)
			var others []*simNode
			for _, n := range r.live() {
				if n != x {
					others = append(others, n)
				}
			}
			var detector *simNode
			for _, n := range others {
				if !slices.Contains(succ, n.id) {
					detector = n
				}
			}
			takeovers := func() []string {
				var who []string
				for _, line := range r.logLines() {
					if id, _, ok := strings.Cut(line, ": cluster: took over "+x.id+":"); ok {
						who = append(who, id)
					}
				}
				return who
			}

			// Finished jobs, shipped to both followers.
			for i := 0; i < 3; i++ {
				if r.submit(x, i, true) == "" {
					t.Fatalf("%s refused a submit", x.id)
				}
			}
			r.quiesce()
			r.shipRound()

			// Only the detector loses x's answers, DeadAfter times in a row,
			// and its death view reaches every other node before x hears
			// of it; then x's own heartbeats bring it the view that
			// excludes it, and it re-joins.
			r.event("%s loses %s's heartbeats", detector.id, x.id)
			for i := 0; i < detector.node.cfg.DeadAfter; i++ {
				r.lose(detector.id, x.id, loseRequest)
				detector.node.heartbeatAll()
				r.quiesce()
			}
			for _, n := range others {
				n.node.heartbeatAll()
				r.quiesce()
			}
			x.node.heartbeatAll()
			r.quiesce()
			for i := 0; r.viewsAgree() != ""; i++ {
				if i == 20 {
					t.Fatalf("views never agreed after the re-join: %s", r.viewsAgree())
				}
				r.heartbeatRound()
			}
			if who := takeovers(); len(who) != 1 || who[0] != succ[0] {
				t.Fatalf("false death of %s taken over by %v, want once by %s", x.id, who, succ[0])
			}

			// Jobs accepted after the re-join, queued behind a pinned
			// worker, shipped, and then x dies with them.
			pin, err := x.svc.Submit(hardTestProblem(t), service.SubmitOptions{
				Mode: service.ModeMaxIsolation, Timeout: 5 * time.Minute,
			})
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "pin running", 10*time.Second, func() bool { return pin.State() == service.StateRunning })
			var after []string
			for i := 3; i < 6; i++ {
				id := r.submit(x, i, true)
				if id == "" {
					t.Fatalf("%s refused a submit after its re-join", x.id)
				}
				after = append(after, id)
			}
			if tc.starve {
				r.lose(x.id, succ[0], loseRequest)
			}
			x.node.ship.shipPending()
			r.simNet.kill(x.id)
			for i := 0; r.pendingDeath(); i++ {
				if i == 20 {
					t.Fatalf("the death of %s was never detected", x.id)
				}
				r.heartbeatRound()
			}
			r.settle()

			want := succ[0]
			if tc.starve {
				want = succ[1]
			}
			if who := takeovers(); len(who) != 2 || who[1] != want {
				t.Errorf("%s taken over by %v, want a second time by %s", x.id, who, want)
			}
			for _, id := range after {
				if on, terminal := r.holders(id); len(on) != 1 || !terminal {
					t.Errorf("job %s accepted after the re-join: registered on %v (terminal %v), want exactly one live holder, terminal",
						id, on, terminal)
				}
			}
		})
	}
}

// TestClusterSimOffloadAnswerLost: a job whose offload answer is lost —
// the peer ran its copy, the response never arrived — completes with a
// result on its origin, which solves it itself, well inside its
// deadline.
func TestClusterSimOffloadAnswerLost(t *testing.T) {
	sn := newSimNet(t, "n1", "n2")
	n1, n2 := sn.nodes["n1"], sn.nodes["n2"]
	// Pin n1's only worker so the job below stays queued; n1 owns it, so
	// its peer fill asks nobody and the lost message is the offload's.
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
	j, ok := n1.svc.Job(sn.submit(n1, i, true))
	if !ok {
		t.Fatal("n1 refused the submit")
	}

	n1.node.heartbeatAll() // n2 reports an empty queue
	sn.lose("n1", "n2", loseResponse)
	n1.node.offloadOnce()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s whose offload answer was lost still %s after 10s", j.ID, j.State())
	}
	if res, err := j.Result(); err != nil || res.Status != "sat" {
		t.Fatalf("job %s: %+v, %v; want a sat result on its origin", j.ID, res, err)
	}
	if got := n2.svc.Stats().JobsSubmitted; got != 1 {
		t.Errorf("n2 took %d jobs, want the one offload whose answer was lost", got)
	}
	if got := n1.node.offloaded.Load(); got != 0 {
		t.Errorf("%d offloads counted as run on a peer, want 0", got)
	}
}

// variantWhere returns the first variant whose fingerprint meets cond,
// with that fingerprint.
func variantWhere(t *testing.T, cond func(fp string) bool) (int, string) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if fp := spec.Fingerprint(mustParse(t, variantSpec(t, i))); cond(fp) {
			return i, fp
		}
	}
	t.Fatal("no variant meets the condition")
	return 0, ""
}

// solveOn solves variant i on n, so that n holds its proven entry.
func solveOn(t *testing.T, n *simNode, i int) {
	t.Helper()
	j, err := n.svc.Submit(mustParse(t, variantSpec(t, i)), service.SubmitOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestClusterSimJoinFillsMovedEntries: a join moves keys to the new node
// and streams nothing; a proven entry follows its key on the miss that
// needs it. Every entry whose owner moved to n4 is answered without a
// solve, both pinned on a node that is neither its old nor its new owner
// (n4 misses, the old owner hits) and submitted at n4, which owns it now.
// A job queued on n1 whose key moved stays on n1 and completes there.
func TestClusterSimJoinFillsMovedEntries(t *testing.T) {
	sn := newSimNet(t)
	peers := sn.peers("n1", "n2", "n3")
	n1 := sn.boot("n1", peers, true) // workers held: its job stays queued
	sn.boot("n2", peers, false)
	sn.boot("n3", peers, false)
	before, after := newRing([]string{"n1", "n2", "n3"}), newRing([]string{"n1", "n2", "n3", "n4"})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Proven entries whose keys move from n2 or n3 to n4, each solved on
	// its old owner only; and one job queued on n1 whose key moves to n4.
	var moved []int
	queued := -1
	for i := 0; len(moved) < 3 || queued < 0; i++ {
		fp := spec.Fingerprint(mustParse(t, variantSpec(t, i)))
		switch from := before.owner(fp, nil); {
		case after.owner(fp, nil) != "n4":
		case from == "n1":
			if queued < 0 {
				queued = i
			}
		case len(moved) < 3:
			solveOn(t, sn.nodes[from], i)
			moved = append(moved, i)
		}
	}
	job, err := n1.svc.Submit(mustParse(t, variantSpec(t, queued)), service.SubmitOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	n4 := sn.boot("n4", sn.peers("n4"), false)
	if _, err := n4.node.Join(ctx, []string{simURL("n1"), simURL("n2"), simURL("n3")}); err != nil {
		t.Fatal(err)
	}
	for _, n := range sn.live() { // the join view reaches n2 and n3
		n.node.heartbeatAll()
	}

	for _, i := range moved {
		from := before.owner(spec.Fingerprint(mustParse(t, variantSpec(t, i))), nil)
		other := sn.nodes["n2"]
		if from == "n2" {
			other = sn.nodes["n3"]
		}
		for _, at := range []*simNode{other, n4} {
			hits := at.node.fillHits.Load()
			j, ok := at.svc.Job(sn.submit(at, i, at != n4))
			if !ok {
				t.Fatalf("%s refused variant %d", at.id, i)
			}
			res, err := j.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Cached || at.node.fillHits.Load() != hits+1 {
				t.Errorf("variant %d moved %s -> n4, submitted at %s: cached %v, %d fill hits; want a hit filled from %s",
					i, from, at.id, res.Cached, at.node.fillHits.Load()-hits, from)
			}
		}
	}

	n1.svc.StartWorkers()
	if res, err := job.Wait(ctx); err != nil || res.Status != "sat" {
		t.Fatalf("job queued on n1: %+v, %v", res, err)
	}
	if got := n1.node.offloaded.Load(); got != 0 {
		t.Errorf("n1 ran %d jobs on a peer, want its queued job to run where it was queued", got)
	}
}

// TestClusterSimPeerFillCandidates: a cold miss asks the key's owner,
// then its owner under the ring the last view change replaced, skipping
// self, a node already asked and a node outside the installed view.
func TestClusterSimPeerFillCandidates(t *testing.T) {
	sn := newSimNet(t, "n1", "n2", "n3")
	n1 := sn.nodes["n1"]
	three := newRing([]string{"n1", "n2", "n3"})
	four := newRing([]string{"n1", "n2", "n3", "n4"})
	check := func(what, fp string, wantAsks int64, wantHit bool) {
		t.Helper()
		asked := n1.node.fillAsked.Load()
		_, hit := n1.node.peerFill(context.Background(), fp, service.ModeSolve)
		if got := n1.node.fillAsked.Load() - asked; got != wantAsks || hit != wantHit {
			t.Errorf("%s: %d asks, hit %v; want %d asks, hit %v", what, got, hit, wantAsks, wantHit)
		}
	}

	_, fp := variantWhere(t, func(fp string) bool { return three.owner(fp, nil) == "n2" })
	check("no view change", fp, 1, false)

	// A key moving n2 -> n4 whose entry n2 holds; one moving from n1
	// itself; one that stays on n2.
	i, movedFP := variantWhere(t, func(fp string) bool {
		return three.owner(fp, nil) == "n2" && four.owner(fp, nil) == "n4"
	})
	solveOn(t, sn.nodes["n2"], i)
	_, fromSelf := variantWhere(t, func(fp string) bool {
		return three.owner(fp, nil) == "n1" && four.owner(fp, nil) == "n4"
	})
	_, stays := variantWhere(t, func(fp string) bool {
		return three.owner(fp, nil) == "n2" && four.owner(fp, nil) == "n2"
	})
	n4 := sn.boot("n4", sn.peers("n4"), false)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := n4.node.Join(ctx, []string{simURL("n1")}); err != nil {
		t.Fatal(err)
	}
	sn.heartbeatRound()
	check("after a join, the key's old owner", movedFP, 2, true)
	check("after a join, previous owner is self", fromSelf, 1, false)
	check("after a join, previous owner is the current one", stays, 1, false)

	// n2 dies: its keys' previous owner is outside the view, and no RPC
	// goes to it.
	without := newRing([]string{"n1", "n3", "n4"})
	_, deadFP := variantWhere(t, func(fp string) bool {
		return four.owner(fp, nil) == "n2" && without.owner(fp, nil) != "n1"
	})
	sn.kill("n2")
	n1.node.handleDeath("n2")
	sn.quiesce()
	check("previous owner dead", deadFP, 1, false)
}
