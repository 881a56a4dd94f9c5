package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"multicluster/internal/benchfmt"
	"multicluster/internal/obs"
	"multicluster/internal/sweep"
)

func newBenchTarget(t *testing.T) *httptest.Server {
	t.Helper()
	svc := sweep.NewService(sweep.Config{
		Workers: 4,
		Metrics: sweep.NewMetrics(obs.NewRegistry()),
	})
	ts := httptest.NewServer(sweep.NewServer(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

func smokeConfig(baseURL string) Config {
	return Config{
		BaseURL:      baseURL,
		Rate:         60,
		Duration:     1 * time.Second,
		Concurrency:  16,
		Seed:         7,
		Mix:          DefaultMix(),
		Instructions: 5000,
		SpecSeeds:    2,
		Timeout:      30 * time.Second,
	}
}

// TestMcbenchSmoke drives a real in-process sweep server at a low fixed
// rate and pins the harness's three contracts: the seeded plan is
// deterministic, the BENCH_serve.json it writes parses back through the
// shared schema, and the client-observed submit/shed counts equal the
// server's own /metrics counters.
func TestMcbenchSmoke(t *testing.T) {
	ts := newBenchTarget(t)
	cfg := smokeConfig(ts.URL)

	// Same seed, same request sequence: the full arrival plan (timing,
	// op kinds, argument draws) must be reproducible.
	plan := buildPlan(cfg)
	if len(plan) == 0 {
		t.Fatal("empty plan")
	}
	if again := buildPlan(cfg); !reflect.DeepEqual(plan, again) {
		t.Fatal("two plans from one seed differ")
	}
	other := cfg
	other.Seed = 8
	if reflect.DeepEqual(plan, buildPlan(other)) {
		t.Fatal("different seeds produced identical plans")
	}

	runner := newRunner(cfg)
	rep := runner.Run(context.Background())
	if rep.Partial {
		t.Fatal("uninterrupted run reported partial")
	}
	if rep.Overall.Requests != int64(len(plan)) {
		t.Fatalf("issued %d requests, want the full plan of %d", rep.Overall.Requests, len(plan))
	}
	if rep.Overall.OK == 0 {
		t.Fatal("no successful requests against a healthy server")
	}
	if rep.Overall.Errors > 0 {
		t.Fatalf("%d errors against a healthy server", rep.Overall.Errors)
	}

	// The report round-trips through the committed-file schema.
	sc, err := scrapeServer(cfg.BaseURL)
	if err != nil {
		t.Fatalf("scraping /metrics: %v", err)
	}
	rep.Server = sc
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := rep.File().Write(path); err != nil {
		t.Fatal(err)
	}
	file, err := benchfmt.Read(path)
	if err != nil {
		t.Fatalf("re-reading the report: %v", err)
	}
	if file.Serve == nil || file.Serve.Partial {
		t.Fatalf("serve metadata wrong: %+v", file.Serve)
	}
	if len(file.Benchmarks) != int(numOpKinds)+1 {
		t.Fatalf("report has %d benchmark entries, want %d mixes + overall", len(file.Benchmarks), numOpKinds+1)
	}
	for _, b := range file.Benchmarks {
		if !strings.HasPrefix(b.Name, "Serve/") {
			t.Errorf("benchmark %q not namespaced under Serve/", b.Name)
		}
		if b.Requests > 0 && b.ErrorRate == 0 && b.P50Ms > b.P99Ms {
			t.Errorf("%s: p50 %g > p99 %g", b.Name, b.P50Ms, b.P99Ms)
		}
	}

	// Client and server agree about what the run did: every 202 the
	// client counted is a submission the server counted, every 429 a shed.
	sub := subStats(rep)
	if sub == nil {
		t.Fatal("no submit stats")
	}
	if sc.Submitted != sub.OK {
		t.Errorf("server sweep_jobs_submitted_total = %d, client submit oks = %d", sc.Submitted, sub.OK)
	}
	if sc.Shed != sub.Shed {
		t.Errorf("server sweep_jobs_shed_total = %d, client submit 429s = %d", sc.Shed, sub.Shed)
	}
}

// TestParseMix pins the -mix grammar: empty means DefaultMix, and only
// the listed classes are accepted.
func TestParseMix(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    Mix
		wantErr string
	}{
		{in: "", want: DefaultMix()},
		{in: "lifecycle=1", want: Mix{opLifecycle: 1}},
		{in: "submit=6,poll=6,table2=2,lifecycle=1", want: DefaultMix()},
		{in: "sweep=1", wantErr: "unknown mix kind"},
	} {
		got, err := ParseMix(tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseMix(%q) error = %v, want %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseMix(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// TestMcbenchLifecycleSoak is the sweep-lifecycle smoke `make
// soak-lifecycle` runs: a mix that includes the first-class sweep
// resource op (create → poll → cursor-resumed results, under rotating
// X-Client-ID tenants) must complete a full plan against a healthy
// server with zero errors, alongside the interactive classes.
func TestMcbenchLifecycleSoak(t *testing.T) {
	ts := newBenchTarget(t)
	cfg := smokeConfig(ts.URL)
	cfg.Mix = Mix{opSubmit: 4, opPoll: 4, opTable2: 1, opLifecycle: 3}
	cfg.Warmup = true

	rep := newRunner(cfg).Run(context.Background())
	if rep.Partial {
		t.Fatal("uninterrupted run reported partial")
	}
	if rep.Overall.Errors > 0 {
		t.Fatalf("%d errors against a healthy server", rep.Overall.Errors)
	}
	var lifecycleOK int64
	for _, ks := range rep.Kinds {
		if ks.Kind == opLifecycle {
			lifecycleOK = ks.OK
		}
	}
	if lifecycleOK == 0 {
		t.Fatal("no lifecycle op completed: create/poll/resume path is broken")
	}
}

// TestWFQKeepsInteractiveTenantLive is the starvation smoke behind the
// WFQ redesign: with a deep batch-tenant sweep backlog monopolizing a
// tiny worker pool, a different tenant's interactive job submissions
// must still be served promptly — service is shared by tenant weight,
// not by backlog depth.
func TestWFQKeepsInteractiveTenantLive(t *testing.T) {
	svc := sweep.NewService(sweep.Config{
		Workers: 2,
		Metrics: sweep.NewMetrics(obs.NewRegistry()),
	})
	ts := httptest.NewServer(sweep.NewServer(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})

	// The batch tenant queues a sweep far wider than the pool: every
	// benchmark × both machines × both schedulers × 2 seeds.
	grid := sweep.Grid{
		Machines:     []string{"single", "dual"},
		Seeds:        []int64{1, 2},
		Instructions: 50000,
	}
	bulk, err := svc.CreateSweep(sweep.WithClientID(context.Background(), "bulk"), "bulk", grid)
	if err != nil {
		t.Fatal(err)
	}
	if bulk.Total() < 16 {
		t.Fatalf("bulk sweep expanded to %d cells, want a deep backlog", bulk.Total())
	}

	// While that backlog drains, the interactive tenant's submissions
	// must each complete quickly instead of waiting behind the sweep.
	client := &http.Client{Timeout: 30 * time.Second}
	for i := 0; i < 3; i++ {
		spec := fmt.Sprintf(`{"benchmark":"compress","machine":"dual","seed":%d,"instructions":5000}`, 900+i)
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-ID", "interactive")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var job sweep.JobView
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()

		deadline := time.Now().Add(15 * time.Second)
		for {
			r2, err := client.Get(ts.URL + "/v1/jobs/" + job.ID)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(r2.Body).Decode(&job); err != nil {
				t.Fatal(err)
			}
			r2.Body.Close()
			if job.State == sweep.JobDone || job.State == sweep.JobFailed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("interactive job %s starved behind the bulk sweep backlog: %+v", job.ID, job)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if job.State != sweep.JobDone {
			t.Fatalf("interactive job failed: %+v", job)
		}
	}
}

// TestMcbenchRunDeterministicAcrossServers repeats one seeded run against
// two fresh servers: the issued request sequence (and so the per-mix
// request counts) must be identical even though response timing differs.
func TestMcbenchRunDeterministicAcrossServers(t *testing.T) {
	var counts [2][]int64
	for i := range counts {
		ts := newBenchTarget(t)
		cfg := smokeConfig(ts.URL)
		cfg.Rate = 40
		rep := newRunner(cfg).Run(context.Background())
		for _, ks := range rep.Kinds {
			counts[i] = append(counts[i], ks.Requests)
		}
	}
	if !reflect.DeepEqual(counts[0], counts[1]) {
		t.Fatalf("per-mix request counts differ across runs of one seed: %v vs %v", counts[0], counts[1])
	}
}

// TestMcbenchInterruptFlushesPartialReport cancels the run context the
// way main's SIGINT handler does and asserts the harness still produces
// a parseable report covering the work done so far, marked partial.
func TestMcbenchInterruptFlushesPartialReport(t *testing.T) {
	ts := newBenchTarget(t)
	cfg := smokeConfig(ts.URL)
	cfg.Duration = 30 * time.Second // would run far past the cancel

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	rep := newRunner(cfg).Run(ctx)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("interrupted run took %s to come back", elapsed)
	}
	if !rep.Partial {
		t.Fatal("interrupted run not marked partial")
	}
	if rep.Overall.Requests == 0 {
		t.Fatal("partial report carries no requests")
	}

	path := filepath.Join(t.TempDir(), "BENCH_partial.json")
	if err := rep.File().Write(path); err != nil {
		t.Fatal(err)
	}
	file, err := benchfmt.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if file.Serve == nil || !file.Serve.Partial {
		t.Fatalf(`partial run's report lacks "partial": true: %+v`, file.Serve)
	}
	if file.Serve.DurationSec >= cfg.Duration.Seconds() {
		t.Fatalf("partial run claims full duration %gs", file.Serve.DurationSec)
	}
}
