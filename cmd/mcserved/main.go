// Command mcserved is the long-lived sweep-orchestration daemon: it accepts
// simulation jobs and grid sweeps over HTTP/JSON, schedules them on a
// bounded worker pool, and serves every repeated configuration from a
// content-addressed result cache that is journaled to disk, so a restart —
// graceful or a crash — recovers every committed result.
//
// Usage:
//
//	mcserved -addr :8742 -workers 8 -data-dir /var/lib/mcserved
//
// Endpoints:
//
//	POST   /v1/jobs                submit one job (a JSON JobSpec), returns 202 + job id,
//	                               429 + Retry-After under load shedding
//	GET    /v1/jobs                list jobs, cursor-paginated (?limit=&after=)
//	GET    /v1/jobs/{id}           poll job status and result
//	DELETE /v1/jobs/{id}           cancel a job (queued jobs never run)
//	POST   /v1/sweeps              create a sweep resource from a grid (JSON), returns 202 + sweep id
//	GET    /v1/sweeps              list sweeps
//	GET    /v1/sweeps/{id}         sweep progress: cells done/total, per-outcome counts
//	GET    /v1/sweeps/{id}/results stream results as NDJSON in grid order; ?cursor=N resumes,
//	                               ?limit=M paginates
//	DELETE /v1/sweeps/{id}         cancel a sweep (queued cells never run)
//	GET    /v1/table2              the paper's Table 2, served from cache (?format=json|csv|text&n=&seed=&window=&width=)
//	GET    /v1/stats               cache/pool/job/sweep/journal counters
//	GET    /metrics                Prometheus text exposition (core, job, sweep, pool, cache, journal)
//	GET    /debug/pprof/           net/http/pprof profiler (only with -pprof)
//	GET    /healthz                liveness probe
//	GET    /readyz                 readiness probe: 503 while overloaded, draining,
//	                               leaving the cluster, or cut off from a peer majority
//
// Every response carries an X-Request-ID header (echoing the request's,
// or freshly generated) and produces one structured access-log line.
// Errors are a structured JSON envelope {"error":{"code","message"}}
// with stable machine-readable codes. Finished jobs are retained for
// polling up to -job-retention entries and finished sweeps up to
// -sweep-retention; older ones are evicted and their ids answer 404.
//
// Sweeps are first-class resources: with -data-dir set their grid spec
// and completion cursor are journaled, so a killed daemon resumes
// incomplete sweeps on restart — already-committed cells replay from the
// result journal without recomputation, and result streams re-read from
// any cursor are byte-identical across the restart. The worker pool
// schedules cells with per-tenant fair queueing keyed on
// X-Client-ID, so one tenant's 10k-cell grid cannot starve another's
// interactive requests.
//
// Fault tolerance:
//
//   - Every job runs under a deadline (-job-timeout, or per-job via the
//     spec's timeout_ms) enforced through context cancellation.
//   - Transient failures retry with exponential backoff and deterministic
//     jitter (-retries, -retry-base); deterministic simulator errors are
//     classified terminal and never retried.
//   - Admission control sheds load with 429 once -max-live jobs are
//     unfinished, and per client once -max-per-client are in flight.
//   - With -data-dir set, completed results are appended (fsynced) to a
//     checksummed journal and replayed on startup; trailing corruption
//     from a crash is truncated and recovery continues.
//   - -faults injects deterministic chaos (panics, errors, latency) at the
//     simulation, cache, journal, and forward boundaries for soak testing.
//
// Cluster mode (-node-id, -peers): several daemons form a sweep cluster.
// A consistent-hash ring over virtual nodes partitions the result space
// by spec hash; each node forwards non-owned work to its owner, serves
// replicated results locally, and spools writes owed to a down peer into
// hint logs replayed when it returns. Cluster peers talk over
// /cluster/v1/{ping,run,result,digest,leave,member,status}; job ids gain
// a node prefix ("n1-j7") so any node can route a lookup to the minting
// node. A background anti-entropy reconciler (-antientropy) exchanges
// per-range digests with peers so replicas converge even when hints were
// lost, and replica-local cache hits trigger asynchronous read-repair of
// the owner's copy. See the README's "Cluster mode" and "Cluster
// operations" sections.
//
// On SIGTERM/SIGINT the daemon stops accepting work, drains in-flight and
// queued jobs, and exits. With -decommission (cluster mode), shutdown
// first executes a graceful leave: the node marks itself leaving,
// streams every cached result to the members inheriting its ranges, and
// removes itself from the ring — a planned scale-down loses nothing and
// leaves no hint backlog behind. POST /cluster/v1/leave does the same
// without stopping the process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"multicluster/internal/cluster"
	"multicluster/internal/faultinject"
	"multicluster/internal/obs"
	"multicluster/internal/sweep"
)

func main() {
	var (
		addr         = flag.String("addr", ":8742", "listen address")
		workers      = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown budget for in-flight jobs")
		jobTimeout   = flag.Duration("job-timeout", 5*time.Minute, "default per-job deadline (0 = none; per-job timeout_ms overrides)")
		retries      = flag.Int("retries", 3, "max executions per job for transient failures (1 = no retries)")
		retryBase    = flag.Duration("retry-base", 25*time.Millisecond, "first retry backoff (doubles per attempt, jittered)")
		retryMax     = flag.Duration("retry-max", 2*time.Second, "retry backoff cap")
		maxLive      = flag.Int("max-live", 4096, "max admitted unfinished jobs before shedding with 429 (0 = unbounded)")
		maxPerClient = flag.Int("max-per-client", 256, "max unfinished jobs per client id (0 = unlimited)")
		jobRetention = flag.Int("job-retention", sweep.DefaultJobRetention, "finished jobs kept for polling before eviction (-1 = unlimited)")
		sweepKeep    = flag.Int("sweep-retention", sweep.DefaultSweepRetention, "finished sweeps kept for result reads before eviction (-1 = unlimited)")
		pprofOn      = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		dataDir      = flag.String("data-dir", "", "directory for the persistent result journal (empty = in-memory only)")
		faults       = flag.String("faults", "", "fault-injection plan, e.g. 'sim:error:0.1,journal:latency:0.5:2ms' (chaos testing)")
		faultSeed    = flag.Int64("fault-seed", 1, "seed for deterministic fault injection")
		nodeID       = flag.String("node-id", "", "cluster node id (empty = single-node mode)")
		peers        = flag.String("peers", "", "static seed peers, comma-separated id=url pairs (cluster mode)")
		advertise    = flag.String("advertise", "", "base URL peers reach this node at (default derived from -addr)")
		vnodes       = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per member on the consistent-hash ring")
		replicas     = flag.Int("replicas", 1, "nodes holding each result, primary included (cluster mode)")
		heartbeat    = flag.Duration("heartbeat", cluster.DefaultHeartbeat, "peer heartbeat interval (cluster mode)")
		antiEntropy  = flag.Duration("antientropy", cluster.DefaultAntiEntropy, "anti-entropy digest-exchange interval (cluster mode; negative disables)")
		hintMaxRecs  = flag.Int64("hint-max-records", cluster.DefaultHintMaxRecords, "per-peer hint log record bound (negative = unbounded)")
		hintMaxBytes = flag.Int64("hint-max-bytes", cluster.DefaultHintMaxBytes, "per-peer hint log byte bound (negative = unbounded)")
		decommission = flag.Bool("decommission", false, "on SIGTERM, gracefully leave the cluster before draining (cluster mode)")
	)
	flag.Parse()

	plan, err := faultinject.ParsePlan(*faults, *faultSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcserved: %v\n", err)
		os.Exit(2)
	}
	if plan.Enabled() {
		log.Printf("mcserved: CHAOS ON: injecting %s (seed %d)", plan, *faultSeed)
	}

	var journal *sweep.Journal
	var sweepJournal *sweep.SweepJournal
	if *dataDir != "" {
		journal, err = sweep.OpenJournal(filepath.Join(*dataDir, "results.journal"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcserved: %v\n", err)
			os.Exit(1)
		}
		js := journal.Stats()
		log.Printf("mcserved: journal %s: replayed %d results", js.Path, js.Records)
		if js.TruncatedBytes > 0 {
			log.Printf("mcserved: journal recovery truncated %d corrupt trailing bytes", js.TruncatedBytes)
		}
		sweepJournal, err = sweep.OpenSweepJournal(filepath.Join(*dataDir, "sweeps.journal"), *sweepKeep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcserved: %v\n", err)
			os.Exit(1)
		}
		resuming := 0
		for _, rs := range sweepJournal.Recovered() {
			if rs.State == sweep.SweepRunning {
				resuming++
			}
		}
		log.Printf("mcserved: sweep journal %s: %d sweeps recovered, %d resuming",
			sweepJournal.Path(), len(sweepJournal.Recovered()), resuming)
	}

	reg := obs.NewRegistry()
	metrics := sweep.NewMetrics(reg)
	cfg := sweep.Config{
		Workers:        *workers,
		JobTimeout:     *jobTimeout,
		Retry:          sweep.RetryPolicy{MaxAttempts: *retries, Base: *retryBase, Max: *retryMax},
		MaxLive:        *maxLive,
		MaxPerClient:   *maxPerClient,
		JobRetention:   *jobRetention,
		Inject:         plan,
		Journal:        journal,
		SweepJournal:   sweepJournal,
		SweepRetention: *sweepKeep,
		Metrics:        metrics,
	}

	// Cluster mode: join the hash ring and route non-owned work to its
	// owner; single-node mode when -node-id is unset.
	var node *cluster.Node
	if *nodeID != "" {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "mcserved: cluster mode (-node-id) requires -data-dir for hinted handoff")
			os.Exit(2)
		}
		seeds, err := cluster.ParsePeers(*peers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcserved: %v\n", err)
			os.Exit(2)
		}
		adv := *advertise
		if adv == "" {
			host, port, err := net.SplitHostPort(*addr)
			if err != nil || port == "" {
				fmt.Fprintln(os.Stderr, "mcserved: cluster mode needs -advertise (could not derive from -addr)")
				os.Exit(2)
			}
			if host == "" {
				host = "127.0.0.1"
			}
			adv = fmt.Sprintf("http://%s", net.JoinHostPort(host, port))
		}
		node, err = cluster.NewNode(cluster.Config{
			Self:           cluster.Member{ID: *nodeID, URL: adv},
			Seeds:          seeds,
			VNodes:         *vnodes,
			Replicas:       *replicas,
			HintDir:        filepath.Join(*dataDir, "hints"),
			Heartbeat:      *heartbeat,
			AntiEntropy:    *antiEntropy,
			HintMaxRecords: *hintMaxRecs,
			HintMaxBytes:   *hintMaxBytes,
			Metrics:        cluster.NewMetrics(reg),
			Inject:         plan,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcserved: %v\n", err)
			os.Exit(1)
		}
		cfg.NodeID = *nodeID
		cfg.Remote = node
		log.Printf("mcserved: cluster node %s at %s (%d seed peers, %d replicas)", *nodeID, adv, len(seeds), *replicas)
	}

	svc := sweep.NewService(cfg)

	var handler http.Handler = sweep.NewServer(svc)
	if node != nil {
		node.AttachService(svc)
		handler = node.Handler(handler)
	}
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	if *pprofOn {
		// Explicit routes rather than the package's DefaultServeMux
		// registration, so the profiler is reachable only when asked for.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("mcserved: pprof enabled at /debug/pprof/")
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv := &http.Server{
		Addr:    *addr,
		Handler: withRequestLogging(logger, *nodeID, mux),
		// A stalled or malicious client must not pin a connection (and its
		// goroutine) forever: bound the header, whole-request read, and
		// idle keep-alive phases. No WriteTimeout — sweeps stream NDJSON
		// for as long as the grid takes.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("mcserved: listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	runCtx, runCancel := context.WithCancel(context.Background())
	defer runCancel()
	if node != nil {
		node.Start(runCtx)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-stop:
		log.Printf("mcserved: %v, draining", sig)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "mcserved: %v\n", err)
		os.Exit(1)
	}

	runCancel() // stop heartbeats and hint replay before draining
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if node != nil && *decommission {
		// Graceful leave before shutdown: hand every owned result to the
		// members inheriting the ranges, then drop out of the ring. A
		// failed drain keeps us in the ring (marked leaving) — the data
		// is safer with the process still answering peers.
		rep, err := node.Decommission(ctx)
		if err != nil {
			log.Printf("mcserved: decommission: %v", err)
		}
		if rep != nil {
			log.Printf("mcserved: decommission: streamed %d results, %d failed, removed=%v",
				rep.Streamed, rep.Failed, rep.Removed)
		}
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("mcserved: http shutdown: %v", err)
	}
	if err := svc.Drain(ctx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// Committed results are already fsynced in the journal; the
			// next start replays them, so abandoning stragglers loses only
			// uncommitted work.
			log.Printf("mcserved: drain timed out, abandoning remaining jobs")
			svc.Close()
			os.Exit(1)
		}
		log.Printf("mcserved: drain: %v", err)
	}
	log.Printf("mcserved: drained, bye")
}
