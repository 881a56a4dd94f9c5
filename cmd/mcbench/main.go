// Command mcbench is the service load harness: a deterministic open-loop
// generator that drives a running mcserved (one node or a cluster) with a
// configurable mix of job submits, status polls, /v1/table2 calls, and
// sweep lifecycles, then writes the observed throughput, latency
// percentiles, and shed/error rates to BENCH_serve.json for the
// scripts/servediff regression gate.
//
// Usage:
//
//	mcbench                                  # self-hosted in-process server
//	mcbench -addr http://localhost:8742      # a running mcserved
//	mcbench -rate 300 -duration 5s -seed 1 -out BENCH_serve.json
//
// Traffic is open-loop: arrivals follow a seeded Poisson process at
// -rate, independent of how fast the server answers, which is what makes
// saturation visible instead of silently backing off. The whole arrival
// sequence (timing, op kinds, spec choices) is drawn up front from -seed,
// so two runs with one seed issue the same requests in the same order.
// Up to -concurrency requests may be in flight; arrivals beyond that are
// counted as client-side drops rather than queued (queuing would turn
// the open loop closed).
//
// Percentiles come from fixed log-spaced bucket histograms on the client
// side and are cross-checked against the server's own /metrics
// histograms, which the report embeds. SIGINT flushes a partial report
// (marked "partial": true) instead of discarding the run.
//
// With -count > 1 the identical plan is executed that many times
// back-to-back and the pass with the lowest overall p99 is reported —
// the same policy benchdiff applies to wall-clock samples: transient
// machine load can only slow a pass down, so the fastest pass is the
// closest measurement of the code itself. Server counters are diffed
// around each pass so the client/server cross-check stays exact.
//
// With -addr empty, mcbench hosts the sweep service in-process on a
// loopback listener — `make bench-serve` needs no separately managed
// daemon, and the client and server contend for the same cores exactly
// like a single-box deployment.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"multicluster/internal/obs"
	"multicluster/internal/sweep"
)

func main() {
	var (
		addr        = flag.String("addr", "", "base URL of a running mcserved (empty = self-hosted in-process server)")
		rate        = flag.Float64("rate", 300, "mean arrivals per second (open loop)")
		duration    = flag.Duration("duration", 5*time.Second, "planned run length")
		concurrency = flag.Int("concurrency", 64, "max in-flight requests; excess arrivals are dropped client-side")
		seed        = flag.Int64("seed", 1, "RNG seed for the arrival plan (same seed, same request sequence)")
		mixFlag     = flag.String("mix", "", "traffic mix weights, e.g. submit=6,poll=6,table2=2,lifecycle=1")
		instr       = flag.Int64("instr", 20000, "per-simulation instruction budget in generated specs")
		specSeeds   = flag.Int("spec-seeds", 4, "distinct simulation seeds in the spec pool (controls cache-hit balance)")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request client timeout")
		warmup      = flag.Bool("warmup", true, "prime the server's result cache before the measured window (steady-state benchmark)")
		count       = flag.Int("count", 1, "benchmark passes; the pass with the lowest overall p99 is reported")
		out         = flag.String("out", "BENCH_serve.json", "output JSON path (empty = don't write)")
		workers     = flag.Int("workers", 0, "self-hosted server worker-pool size (0 = GOMAXPROCS)")
		maxLive     = flag.Int("max-live", 4096, "self-hosted server admission window (0 = unbounded)")
	)
	flag.Parse()

	mix, err := ParseMix(*mixFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcbench: %v\n", err)
		os.Exit(2)
	}
	if mix.total() == 0 || *rate <= 0 || *concurrency <= 0 || *specSeeds <= 0 || *count <= 0 {
		fmt.Fprintln(os.Stderr, "mcbench: mix, rate, concurrency, spec-seeds, and count must be positive")
		os.Exit(2)
	}

	cfg := Config{
		BaseURL:      *addr,
		Rate:         *rate,
		Duration:     *duration,
		Concurrency:  *concurrency,
		Seed:         *seed,
		Mix:          mix,
		Instructions: *instr,
		SpecSeeds:    *specSeeds,
		Timeout:      *timeout,
		Warmup:       *warmup,
	}
	if cfg.BaseURL == "" {
		base, shutdown, err := startSelfServe(*workers, *maxLive)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: self-serve: %v\n", err)
			os.Exit(1)
		}
		defer shutdown()
		cfg.BaseURL = base
		fmt.Printf("mcbench: self-hosted mcserved at %s (%d workers)\n", base, *workers)
	}

	// SIGINT/SIGTERM cancels the run context; the runner stops issuing,
	// drains its in-flight tail, and the partial report is still written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep := runPasses(ctx, cfg, *count)

	rep.print(os.Stdout)
	if *out != "" {
		if err := rep.File().Write(*out); err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if rep.Partial {
		// A partial run flushed its numbers but must not look like a clean
		// benchmark to calling scripts.
		os.Exit(130)
	}
}

// runPasses executes the plan count times and returns the pass with the
// lowest overall p99 (a pass can only be slowed down by outside load,
// never sped up, so the fastest pass best isolates the code under
// test). The server's cumulative counters are scraped before and after
// every pass; each report carries that pass's deltas, keeping the
// client/server cross-check exact across passes. The result cache is
// warmed once — later passes are steady-state by construction. On
// interrupt, a completed pass is still preferred; the in-progress
// partial pass is reported only when nothing finished.
func runPasses(ctx context.Context, cfg Config, count int) *Report {
	prev, err := scrapeServer(cfg.BaseURL)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcbench: scraping /metrics: %v\n", err)
		prev = nil
	}
	var best, partial *Report
	for pass := 0; pass < count; pass++ {
		passCfg := cfg
		passCfg.Warmup = cfg.Warmup && pass == 0
		runner := newRunner(passCfg)
		if pass == 0 {
			fmt.Printf("mcbench: %d planned arrivals over %s against %s (%d pass(es))\n",
				len(runner.plan), cfg.Duration, cfg.BaseURL, count)
		}
		rep := runner.Run(ctx)
		if cur, err := scrapeServer(cfg.BaseURL); err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: scraping /metrics: %v\n", err)
		} else if cur != nil {
			delta := *cur
			if prev != nil {
				delta.Submitted -= prev.Submitted
				delta.Shed -= prev.Shed
			}
			rep.Server = &delta
			prev = cur
		}
		if rep.Partial {
			partial = rep
			break
		}
		if count > 1 {
			fmt.Printf("mcbench: pass %d/%d overall p99 %.2fms\n",
				pass+1, count, rep.Overall.Hist.Quantile(0.99)*1000)
		}
		if best == nil || rep.Overall.Hist.Quantile(0.99) < best.Overall.Hist.Quantile(0.99) {
			best = rep
		}
	}
	if best == nil {
		return partial
	}
	return best
}

// startSelfServe hosts the sweep service in-process on a loopback
// listener, metrics enabled, and returns its base URL.
func startSelfServe(workers, maxLive int) (string, func(), error) {
	reg := obs.NewRegistry()
	svc := sweep.NewService(sweep.Config{
		Workers: workers,
		MaxLive: maxLive,
		Metrics: sweep.NewMetrics(reg),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return "", nil, err
	}
	srv := &http.Server{Handler: sweep.NewServer(svc)}
	go srv.Serve(ln)
	shutdown := func() {
		srv.Close()
		svc.Close()
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
