package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"configsynth/internal/cluster"
	"configsynth/internal/service"
)

// node is one in-process confserved: a service behind its HTTP handler
// on a loopback listener, optionally wrapped in a cluster node.
type node struct {
	id      string
	svc     *service.Service
	cl      *cluster.Node // nil single-node
	srv     *http.Server
	base    string
	journal string // journal file path, "" without one
}

// startSingle starts the single-node server of workloads 1-5: two job
// workers, one solver worker per job (which keeps search deterministic),
// every other setting at its default.
func startSingle() (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Workers: 2, SolverWorkers: 1})
	n := &node{svc: svc, srv: &http.Server{Handler: svc.Handler()}, base: "http://" + ln.Addr().String()}
	go n.srv.Serve(ln)
	return n, nil
}

// startCluster starts three journaled nodes over loopback: sync off,
// WAL shipped to two successors, 250 ms heartbeat. dir holds the
// journals and shadows.
func startCluster(dir string) ([]*node, error) {
	const size = 3
	lns := make([]net.Listener, size)
	peers := map[string]string{}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		peers[fmt.Sprintf("n%d", i+1)] = "http://" + ln.Addr().String()
	}
	var nodes []*node
	for i, ln := range lns {
		id := fmt.Sprintf("n%d", i+1)
		journal := filepath.Join(dir, id, "journal.wal")
		svc, err := service.Open(service.Config{Workers: 2, SolverWorkers: 1, NodeID: id, JournalPath: journal})
		if err != nil {
			stopNodes(nodes)
			return nil, err
		}
		cl, err := cluster.New(svc, cluster.Config{
			NodeID:            id,
			Peers:             peers,
			HeartbeatInterval: 250 * time.Millisecond,
			Logf:              func(string, ...any) {},
		})
		if err != nil {
			svc.Close()
			stopNodes(nodes)
			return nil, err
		}
		n := &node{id: id, svc: svc, cl: cl, base: peers[id], journal: journal,
			srv: &http.Server{Handler: cl.Handler(svc.Handler())}}
		go n.srv.Serve(ln)
		cl.Start()
		nodes = append(nodes, n)
	}
	return nodes, nil
}

func (n *node) stop() {
	n.srv.Close()
	if n.cl != nil {
		n.cl.Stop()
	}
	n.svc.Close()
}

func stopNodes(nodes []*node) {
	for _, n := range nodes {
		n.stop()
	}
}

// nodeStats is /statsz: the service counters, plus the cluster section
// on a cluster node.
type nodeStats struct {
	service.Stats
	Cluster cluster.Stats `json:"cluster"`
}

// client is one closed-loop client: a single keep-alive connection.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and reads the whole response.
func (c *client) post(url, contentType, body string) (int, http.Header, []byte, error) {
	resp, err := c.hc.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

func (c *client) getJSON(url string, out any) error {
	resp, err := c.hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// statsz sums the counters the benchmark reads over the given nodes.
func statsz(c *client, nodes []*node) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, n := range nodes {
		var st nodeStats
		if err := c.getJSON(n.base+"/statsz", &st); err != nil {
			return nil, err
		}
		for k, v := range countersOf(st, n.journal) {
			sum[k] += v
		}
	}
	return sum, nil
}

// countersOf flattens the /statsz fields the per-layer metrics are
// deltas of. replica_lag_bytes is a gauge, read only by the ship-drain
// wait.
func countersOf(st nodeStats, journal string) map[string]float64 {
	return map[string]float64{
		"jobs_completed":    float64(st.JobsCompleted),
		"jobs_failed":       float64(st.JobsFailed),
		"jobs_degraded":     float64(st.JobsDegraded),
		"cache_hits":        float64(st.Cache.Hits),
		"cache_misses":      float64(st.Cache.Misses),
		"cache_evictions":   float64(st.Cache.Evictions),
		"region_hits":       float64(st.RegionCache.Hits),
		"region_misses":     float64(st.RegionCache.Misses),
		"session_hits":      float64(st.Sessions.Hits),
		"session_misses":    float64(st.Sessions.Misses),
		"conflicts":         float64(st.Solver.Conflicts),
		"decisions":         float64(st.Solver.Decisions),
		"propagations":      float64(st.Solver.Propagations),
		"restarts":          float64(st.Solver.Restarts),
		"reduced":           float64(st.Solver.Reduced),
		"subsumed":          float64(st.Solver.Subsumed),
		"forwarded":         float64(st.Cluster.RequestsForwarded),
		"forward_failures":  float64(st.Cluster.ForwardFailures),
		"fill_asked":        float64(st.Cluster.FillAsked),
		"fill_hits":         float64(st.Cluster.FillHits),
		"jobs_stolen":       float64(st.Cluster.JobsStolen),
		"shipped_bytes":     float64(st.Cluster.ShippedBytes),
		"journal_appended":  journalAppended(st),
		"journal_bytes":     fileSize(journal),
		"replica_lag_bytes": replicaLag(st),
	}
}

func journalAppended(st nodeStats) float64 {
	if st.Journal == nil {
		return 0
	}
	return float64(st.Journal.Appended)
}

func replicaLag(st nodeStats) float64 {
	var lag int64
	for _, r := range st.Cluster.Replicas {
		lag += r.LagBytes
	}
	return float64(lag)
}

func fileSize(path string) float64 {
	if path == "" {
		return 0
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}
