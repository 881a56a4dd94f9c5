package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"multicluster/internal/sweep"
	"multicluster/internal/workload"
)

// opKind is one traffic class in the mix.
type opKind int

const (
	opSubmit    opKind = iota // POST /v1/jobs
	opPoll                    // GET /v1/jobs/{id} (or the job list)
	opTable2                  // GET /v1/table2
	opLifecycle               // POST /v1/sweeps (202) + progress polls + cursor-resumed results read
	numOpKinds
)

func (k opKind) String() string {
	switch k {
	case opSubmit:
		return "submit"
	case opPoll:
		return "poll"
	case opTable2:
		return "table2"
	case opLifecycle:
		return "lifecycle"
	}
	return "unknown"
}

// Mix is the relative weight of each traffic class.
type Mix [numOpKinds]int

// DefaultMix leans on the cheap interactive calls the way real clients
// do, with a trickle of heavyweight sweeps.
func DefaultMix() Mix { return Mix{opSubmit: 6, opPoll: 6, opTable2: 2, opLifecycle: 1} }

// ParseMix parses "submit=6,poll=6,table2=2,lifecycle=1"; omitted classes get
// weight 0, an empty string means DefaultMix.
func ParseMix(s string) (Mix, error) {
	if s == "" {
		return DefaultMix(), nil
	}
	var m Mix
	for _, part := range bytes.Split([]byte(s), []byte(",")) {
		kv := bytes.SplitN(part, []byte("="), 2)
		if len(kv) != 2 {
			return m, fmt.Errorf("bad mix element %q (want kind=weight)", part)
		}
		var w int
		if _, err := fmt.Sscanf(string(kv[1]), "%d", &w); err != nil || w < 0 {
			return m, fmt.Errorf("bad mix weight %q", part)
		}
		found := false
		for k := opKind(0); k < numOpKinds; k++ {
			if k.String() == string(bytes.TrimSpace(kv[0])) {
				m[k] = w
				found = true
			}
		}
		if !found {
			return m, fmt.Errorf("unknown mix kind %q", kv[0])
		}
	}
	return m, nil
}

func (m Mix) total() int {
	t := 0
	for _, w := range m {
		t += w
	}
	return t
}

// Config parameterizes one load run.
type Config struct {
	BaseURL     string
	Rate        float64       // mean arrivals per second (open loop, Poisson)
	Duration    time.Duration // planned run length
	Concurrency int           // max in-flight requests; excess arrivals are dropped client-side
	Seed        int64         // drives the arrival plan; same seed, same request sequence
	Mix         Mix
	// Instructions is the per-simulation dynamic budget used in generated
	// specs, table2 calls, and sweep grids; small budgets keep the bench
	// about the service, not the simulator.
	Instructions int64
	// SpecSeeds is the number of distinct simulation seeds in the spec
	// pool; it controls the cache-hit/miss balance of the run.
	SpecSeeds int
	Timeout   time.Duration // per-request client timeout
	// Warmup primes the server's result cache with every pool spec (one
	// covering sweep) and the table2 grid before the measured window, so
	// the run benchmarks the steady-state service path instead of mixing
	// in each configuration's one-time simulation cost. Without it the
	// run's first half is cold and its second half cached — a drift that
	// swamps the tail percentiles.
	Warmup bool
}

// plannedOp is one arrival: what to send and when, fixed before the run
// starts. Arg is a raw RNG draw spent at execution time (spec choice,
// poll-target choice), so execution never advances the planning RNG.
type plannedOp struct {
	Kind opKind
	At   time.Duration
	Arg  int64
}

// buildPlan expands the config into the full deterministic arrival
// sequence: exponential inter-arrival gaps at the configured mean rate
// and mix-weighted op kinds, all drawn from one seeded RNG. Two calls
// with the same Config return identical plans — this is the determinism
// the smoke test pins.
func buildPlan(cfg Config) []plannedOp {
	rng := rand.New(rand.NewSource(cfg.Seed))
	total := cfg.Mix.total()
	var plan []plannedOp
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
		if at >= cfg.Duration {
			return plan
		}
		pick := rng.Intn(total)
		kind := opKind(0)
		for k := opKind(0); k < numOpKinds; k++ {
			if pick < cfg.Mix[k] {
				kind = k
				break
			}
			pick -= cfg.Mix[k]
		}
		plan = append(plan, plannedOp{Kind: kind, At: at, Arg: rng.Int63()})
	}
}

// specPool enumerates the distinct JobSpecs the run draws from: every
// benchmark × {single, dual} × SpecSeeds seeds. Repeats of one spec hit
// the server's result cache; the pool size tunes how often that happens.
func specPool(cfg Config) []sweep.JobSpec {
	var pool []sweep.JobSpec
	for _, b := range workload.All() {
		for _, machine := range []string{"single", "dual"} {
			for s := 0; s < cfg.SpecSeeds; s++ {
				pool = append(pool, sweep.JobSpec{
					Benchmark:    b.Name,
					Machine:      machine,
					Seed:         int64(100 + s),
					Instructions: cfg.Instructions,
				})
			}
		}
	}
	return pool
}

// opStats accumulates one traffic class's outcomes. Requests counts
// every planned arrival whose turn came (dropped ones included), so it
// is deterministic for a completed run; the outcome split depends on the
// server. Any non-429, non-5xx response counts as ok — a poll answered
// 404 after eviction is the server working as documented, not an error.
type opStats struct {
	requests int64 // issuing loop only, no concurrency
	dropped  int64 // issuing loop only
	ok       atomic.Int64
	shed     atomic.Int64 // HTTP 429
	errors   atomic.Int64 // transport errors and 5xx
	canceled atomic.Int64 // run interrupted mid-request; excluded from errors
	// Latencies are recorded per run half so the report can measure its
	// own tail jitter (the spread between the halves' p99s) — the noise
	// band servediff widens its gate by.
	hists [2]*latHist
}

// Runner executes a plan against a live server.
type Runner struct {
	cfg     Config
	plan    []plannedOp
	specs   []sweep.JobSpec
	client  *http.Client
	stats   [numOpKinds]*opStats
	overall [2]*latHist

	mu  sync.Mutex
	ids []string // job ids from successful submits, poll targets
}

func newRunner(cfg Config) *Runner {
	r := &Runner{
		cfg:     cfg,
		plan:    buildPlan(cfg),
		specs:   specPool(cfg),
		overall: [2]*latHist{newLatHist(), newLatHist()},
		client: &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Concurrency,
				MaxIdleConnsPerHost: cfg.Concurrency,
			},
		},
	}
	for k := range r.stats {
		r.stats[k] = &opStats{hists: [2]*latHist{newLatHist(), newLatHist()}}
	}
	return r
}

// Run replays the plan in real time: each arrival fires at its planned
// offset, takes an in-flight slot if one is free (or is counted dropped),
// and runs to completion in its own goroutine. Cancellation of ctx stops
// issuing new arrivals, waits for the in-flight tail, and marks the
// report partial — the numbers collected so far are still flushed.
func (r *Runner) Run(ctx context.Context) *Report {
	if r.cfg.Warmup {
		r.warmup(ctx)
	}
	start := time.Now()
	sem := make(chan struct{}, r.cfg.Concurrency)
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C

	partial := false
issue:
	for _, op := range r.plan {
		if delay := op.At - time.Since(start); delay > 0 {
			timer.Reset(delay)
			select {
			case <-timer.C:
			case <-ctx.Done():
				partial = true
				break issue
			}
		} else if ctx.Err() != nil {
			partial = true
			break
		}
		st := r.stats[op.Kind]
		st.requests++
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(op plannedOp) {
				defer wg.Done()
				defer func() { <-sem }()
				r.do(ctx, op)
			}(op)
		default:
			st.dropped++
		}
	}
	wg.Wait()
	return r.report(time.Since(start), partial)
}

// warmup computes every spec the run can draw before the clock starts:
// one sweep covering the whole pool (the grid expands to exactly the
// pool's benchmarks × machines × seeds) and one table2 call. Best
// effort — a server that cannot warm up will show the failure in the
// measured run anyway.
func (r *Runner) warmup(ctx context.Context) {
	seeds := make([]int64, r.cfg.SpecSeeds)
	for i := range seeds {
		seeds[i] = int64(100 + i)
	}
	grid := sweep.Grid{
		Machines:     []string{"single", "dual"},
		Schedulers:   []string{"none"},
		Seeds:        seeds,
		Instructions: r.cfg.Instructions,
	}
	// The results stream waits for every cell, so reading it to EOF
	// returns only once the cache is fully primed.
	if status, view, err := r.createSweep(ctx, grid, ""); err == nil && status == http.StatusAccepted {
		r.get(ctx, r.cfg.BaseURL+"/v1/sweeps/"+view.ID+"/results")
	}
	if _, _, err := r.get(ctx, fmt.Sprintf("%s/v1/table2?format=json&n=%d", r.cfg.BaseURL, r.cfg.Instructions)); err != nil {
		return
	}
}

// do executes one arrival and classifies its outcome. Latency is
// first-byte-to-last-byte inclusive: the clock stops only after the full
// body (for sweeps, every progress poll and results page) has been read.
func (r *Runner) do(ctx context.Context, op plannedOp) {
	st := r.stats[op.Kind]
	window := 0
	if op.At*2 >= r.cfg.Duration {
		window = 1
	}
	t0 := time.Now()
	status, jobID, err := r.send(ctx, op)
	lat := time.Since(t0).Seconds()
	switch {
	case err != nil && ctx.Err() != nil:
		st.canceled.Add(1)
	case err != nil, status >= 500:
		st.errors.Add(1)
	case status == http.StatusTooManyRequests:
		st.shed.Add(1)
	default:
		st.ok.Add(1)
		st.hists[window].Observe(lat)
		r.overall[window].Observe(lat)
		if jobID != "" {
			r.mu.Lock()
			r.ids = append(r.ids, jobID)
			r.mu.Unlock()
		}
	}
}

// send issues the HTTP call for op and returns the status code and, for
// successful submits, the new job id.
func (r *Runner) send(ctx context.Context, op plannedOp) (status int, jobID string, err error) {
	base := r.cfg.BaseURL
	switch op.Kind {
	case opSubmit:
		spec := r.specs[int(op.Arg%int64(len(r.specs)))]
		body, merr := json.Marshal(spec)
		if merr != nil {
			return 0, "", merr
		}
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
		if rerr != nil {
			return 0, "", rerr
		}
		req.Header.Set("Content-Type", "application/json")
		resp, derr := r.client.Do(req)
		if derr != nil {
			return 0, "", derr
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			var view sweep.JobView
			if json.NewDecoder(resp.Body).Decode(&view) == nil {
				jobID = view.ID
			}
		}
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, jobID, nil

	case opPoll:
		url := base + "/v1/jobs"
		r.mu.Lock()
		if n := len(r.ids); n > 0 {
			url += "/" + r.ids[int(op.Arg%int64(n))]
		}
		r.mu.Unlock()
		return r.get(ctx, url)

	case opTable2:
		return r.get(ctx, fmt.Sprintf("%s/v1/table2?format=json&n=%d", base, r.cfg.Instructions))

	case opLifecycle:
		return r.sweepLifecycle(ctx, op)
	}
	return 0, "", fmt.Errorf("unknown op kind %d", op.Kind)
}

// sweepGrid is the small two-cell grid an op's argument draw maps to:
// one benchmark, both machine models, one seed.
func (r *Runner) sweepGrid(op plannedOp) sweep.Grid {
	spec := r.specs[int(op.Arg%int64(len(r.specs)))]
	return sweep.Grid{
		Benchmarks:   []string{spec.Benchmark},
		Machines:     []string{"single", "dual"},
		Schedulers:   []string{"none"},
		Seeds:        []int64{spec.Seed},
		Instructions: r.cfg.Instructions,
	}
}

// sweepLifecycle drives the first-class sweep resource end to end the
// way a polling client does: create (202), poll progress until the
// sweep is terminal, then read the results in two cursor-resumed chunks
// — the second GET picks up exactly where the first stopped. The
// arrival's argument draw also picks one of a few client ids so the
// server's fair queues see real multi-tenant traffic.
func (r *Runner) sweepLifecycle(ctx context.Context, op plannedOp) (int, string, error) {
	base := r.cfg.BaseURL
	tenant := fmt.Sprintf("bench-%d", op.Arg%4)
	status, view, err := r.createSweep(ctx, r.sweepGrid(op), tenant)
	if err != nil {
		return 0, "", err
	}
	if status != http.StatusAccepted {
		return status, "", nil
	}

	// Poll progress until the server reports a terminal state.
	for view.State == sweep.SweepRunning {
		select {
		case <-ctx.Done():
			return 0, "", ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		status, err := r.getJSON(ctx, base+"/v1/sweeps/"+view.ID, &view)
		if err != nil {
			return 0, "", err
		}
		if status != http.StatusOK {
			return status, "", nil
		}
	}

	// Resumable read: first half by limit, remainder by cursor.
	half := view.Total / 2
	for _, q := range []string{
		fmt.Sprintf("?cursor=0&limit=%d", half),
		fmt.Sprintf("?cursor=%d", half),
	} {
		status, _, err := r.get(ctx, base+"/v1/sweeps/"+view.ID+"/results"+q)
		if err != nil || status != http.StatusOK {
			return status, "", err
		}
	}
	return http.StatusOK, "", nil
}

// createSweep POSTs grid as a sweep resource, under the tenant's client
// id when one is given, and decodes the 202's view.
func (r *Runner) createSweep(ctx context.Context, grid sweep.Grid, tenant string) (int, sweep.SweepView, error) {
	var view sweep.SweepView
	body, err := json.Marshal(grid)
	if err != nil {
		return 0, view, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.cfg.BaseURL+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return 0, view, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Client-ID", tenant)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, view, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&view)
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, view, err
}

// getJSON fetches url and decodes the body into out.
func (r *Runner) getJSON(ctx context.Context, url string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return 0, err
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func (r *Runner) get(ctx context.Context, url string) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, "", err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, "", nil
}
