// Command confserved runs ConfigSynth as a long-lived HTTP synthesis
// service: a bounded job queue drained by a pool of portfolio solvers,
// fronted by a canonical-fingerprint result cache, with per-request
// deadlines, client-disconnect cancellation, and NDJSON streaming of
// intermediate optimization bounds.
//
// Usage:
//
//	confserved [-addr :8732] [-workers 2] [-solver-workers 1]
//	           [-queue 64] [-cache 256] [-sessions 8] [-session-ttl 10m]
//	           [-region-workers 4] [-region-cache 512]
//	           [-timeout 120s] [-max-timeout 10m]
//	           [-journal path] [-journal-sync] [-drain-timeout 10s]
//	           [-node-id n1 -peers n1=http://h1:8732,n2=http://h2:8732]
//	           [-node-id n3 -advertise http://h3:8732 -join http://h1:8732,http://h2:8732]
//	           [-heartbeat 1s] [-suspect-after 3] [-dead-after 6]
//	           [-join-timeout 30s] [-pprof-addr localhost:6060]
//
// With -node-id and -peers, the daemon starts a cluster member (see
// internal/cluster): requests are forwarded to the consistent-hash
// owner of their problem fingerprint, cold misses consult the owner's
// cache, a node with a queue offloads queued jobs to idle peers through
// the same forwarded request, and each node's journal is streamed to
// its two ring successors so even two simultaneous SIGKILLs lose no
// accepted job.
//
// With -node-id, -advertise, and -join, the daemon joins a running
// cluster through the epoch handshake instead of a static peer list: a
// seed admits it into the epoch+1 membership view and reports which of
// its job IDs the cluster adopted while it was down, so a stale journal
// is reconciled automatically — no manual wipe.
//
// With -journal, every accepted job is recorded in an append-only,
// checksummed write-ahead log before it is enqueued, and every terminal
// result after it completes. Restarting against the same journal
// replays it: proven results re-seed the cache and accepted-but-
// unfinished jobs are re-enqueued, so a crash loses no accepted work.
//
// Endpoints:
//
//	POST /v1/synthesize   problem spec in (Table IV format), design out;
//	                      ?example=1 ?mode= ?timeout= ?async=1 ?stream=1
//	                      (mode=decomp solves by topology decomposition)
//	POST /v1/batch        N named spec variants in one request, solved as
//	                      individual journaled jobs (default mode decomp,
//	                      sharing the region cache); NDJSON results in
//	                      completion order, or ?async=1 for job ids
//	POST /v1/whatif       re-solve a finished job's problem under a
//	                      threshold/link delta on a warm solver session
//	POST /v1/verify       independently validate a design
//	GET  /v1/jobs/{id}    job status; ?stream=1 replays NDJSON events
//	GET  /healthz         liveness (process up)
//	GET  /readyz          readiness (503 while replaying, saturated, or draining)
//	GET  /statsz          queue, cache, journal, and solver counters
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // handlers on DefaultServeMux; served only via -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"configsynth/internal/cluster"
	"configsynth/internal/service"
)

// parsePeers decodes "-peers n1=http://h1:8732,n2=http://h2:8732".
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", part)
		}
		out[id] = url
	}
	return out, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "confserved:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until the listener fails or stop is
// signalled (tests pass a stop channel; main wires SIGINT/SIGTERM).
func run(args []string, stdout io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("confserved", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8732", "listen address")
		workers       = fs.Int("workers", 2, "concurrent synthesis jobs")
		solverWorkers = fs.Int("solver-workers", 1, "portfolio size per job")
		queue         = fs.Int("queue", 64, "job queue depth (full queue returns 429)")
		cacheEntries  = fs.Int("cache", 256, "result cache entries")
		sessions      = fs.Int("sessions", 8, "warm what-if sessions kept for /v1/whatif deltas")
		regionWorkers = fs.Int("region-workers", 4, "concurrently solved regions inside one decomp-mode job")
		regionCache   = fs.Int("region-cache", 512, "region result cache entries shared across decomp-mode jobs")
		sessionTTL    = fs.Duration("session-ttl", 10*time.Minute, "idle eviction for warm what-if sessions")
		timeout       = fs.Duration("timeout", 120*time.Second, "default per-job deadline")
		maxTimeout    = fs.Duration("max-timeout", 10*time.Minute, "cap on client-requested deadlines")
		journal       = fs.String("journal", "", "durable job journal path (empty disables durability)")
		journalSync   = fs.Bool("journal-sync", false, "fsync the journal after every record")
		nodeID        = fs.String("node-id", "", "cluster identity of this node (enables cluster mode with -peers or -join)")
		peers         = fs.String("peers", "", "static cluster member list, id=url pairs: n1=http://h1:8732,n2=http://h2:8732 (must include this node)")
		join          = fs.String("join", "", "comma-separated seed URLs of a running cluster to join via the epoch handshake (requires -node-id and -advertise; replaces -peers)")
		joinTimeout   = fs.Duration("join-timeout", 30*time.Second, "budget for the join handshake before startup fails")
		advertise     = fs.String("advertise", "", "URL peers reach this node at (overrides this node's entry in -peers; required with -join)")
		heartbeat     = fs.Duration("heartbeat", time.Second, "cluster heartbeat interval (liveness, offload, and WAL-ship pacing)")
		suspectAfter  = fs.Int("suspect-after", 3, "missed heartbeats before a peer is drained")
		deadAfter     = fs.Int("dead-after", 6, "missed heartbeats before takeover of a peer's journal")
		drainTimeout  = fs.Duration("drain-timeout", 10*time.Second, "shutdown budget for in-flight jobs before they are canceled")
		pprofAddr     = fs.String("pprof-addr", "", "debug listener for net/http/pprof profiles (empty disables; bind loopback, e.g. localhost:6060)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var seeds []string
	if *join != "" {
		if *nodeID == "" || *advertise == "" {
			return errors.New("-join requires -node-id and -advertise")
		}
		if *peers != "" {
			return errors.New("-join and -peers are mutually exclusive (the handshake learns the member list)")
		}
		for _, s := range strings.Split(*join, ",") {
			if s = strings.TrimSpace(s); s != "" {
				seeds = append(seeds, s)
			}
		}
		if len(seeds) == 0 {
			return errors.New("-join lists no seed URLs")
		}
	} else if (*nodeID == "") != (*peers == "") {
		return errors.New("-node-id and -peers must be set together (or use -join)")
	}
	peerMap, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	if *advertise != "" && *nodeID != "" {
		if peerMap == nil {
			peerMap = map[string]string{}
		}
		peerMap[*nodeID] = *advertise
	}

	// With -join the worker pool stays held until the handshake has
	// reconciled the journal: a stale replayed job must not start solving
	// before the cluster reports which of its IDs were adopted elsewhere.
	openService := service.Open
	if len(seeds) > 0 {
		openService = service.OpenHeld
	}
	svc, err := openService(service.Config{
		Workers:            *workers,
		SolverWorkers:      *solverWorkers,
		QueueDepth:         *queue,
		CacheEntries:       *cacheEntries,
		SessionEntries:     *sessions,
		SessionTTL:         *sessionTTL,
		RegionWorkers:      *regionWorkers,
		RegionCacheEntries: *regionCache,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		JournalPath:        *journal,
		JournalSync:        *journalSync,
		NodeID:             *nodeID,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	handler := svc.Handler()
	var node *cluster.Node
	if *nodeID != "" {
		node, err = cluster.New(svc, cluster.Config{
			NodeID:            *nodeID,
			Peers:             peerMap,
			HeartbeatInterval: *heartbeat,
			SuspectAfter:      *suspectAfter,
			DeadAfter:         *deadAfter,
		})
		if err != nil {
			return err
		}
		handler = node.Handler(handler)
		// With -join, Start is deferred until the handshake admits us
		// (below, once the listener is up so peers can reach this node).
		if len(seeds) == 0 {
			node.Start()
		}
		defer node.Stop()
	}

	if *pprofAddr != "" {
		// Separate listener so profiling is never exposed on the service
		// port; the DefaultServeMux carries the net/http/pprof handlers
		// registered by the import above. Live captures of the solver hot
		// path (see EXPERIMENTS.md):
		//
		//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=30
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Fprintf(stdout, "confserved pprof listening on %s\n", pln.Addr())
		go func() {
			psrv := &http.Server{Handler: http.DefaultServeMux}
			if err := psrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(stdout, "confserved pprof: %v\n", err)
			}
		}()
		defer pln.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	fmt.Fprintf(stdout, "confserved listening on %s (workers=%d queue=%d cache=%d)\n",
		ln.Addr(), *workers, *queue, *cacheEntries)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	if len(seeds) > 0 {
		// The listener is up (peers can verify and heartbeat us), so run
		// the handshake: present identity + journal epoch, get back the
		// admitted view and the job IDs the cluster adopted while this
		// node was down, truncate those from the replayed journal, and
		// only then release the workers. A typed refusal (version skew,
		// identity conflict) is fatal — retrying cannot fix it.
		jctx, jcancel := context.WithTimeout(context.Background(), *joinTimeout)
		adopted, jerr := node.Join(jctx, seeds)
		jcancel()
		if jerr != nil {
			srv.Close()
			return fmt.Errorf("joining cluster: %w", jerr)
		}
		if dropped := svc.DropSuperseded(adopted); dropped > 0 {
			fmt.Fprintf(stdout, "confserved: dropped %d stale journal jobs adopted by peers\n", dropped)
		}
		svc.StartWorkers()
		node.Start()
		fmt.Fprintln(stdout, "confserved joined cluster")
	}

	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			<-sig
			close(done)
		}()
		stop = done
	}

	select {
	case err := <-errc:
		return err
	case <-stop:
	}
	fmt.Fprintln(stdout, "confserved shutting down")
	// Drain first: the service stops accepting (readyz flips to 503,
	// new submits fail), finishes in-flight jobs within the budget, and
	// journals their results. Only then is the HTTP server closed, so
	// clients of draining jobs still get their responses.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Drain(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stdout, "confserved drain: %v\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
