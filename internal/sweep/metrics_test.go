package sweep

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"multicluster/internal/obs"
)

// newMetricsServer is newTestServer with an instrumented service: a fresh
// obs.Registry-backed Metrics, an optional stubbed kernel, and any extra
// Config shaping via mutate.
func newMetricsServer(t *testing.T, workers int, stub *stubExec, mutate func(*Config)) (*httptest.Server, *Service) {
	t.Helper()
	cfg := Config{Workers: workers, Metrics: NewMetrics(obs.NewRegistry())}
	if stub != nil {
		cfg.exec = stub.exec
	}
	if mutate != nil {
		mutate(&cfg)
	}
	svc := NewService(cfg)
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, svc
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET /metrics content type %q, want Prometheus text 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestJobRetentionEviction is the registry-growth soak: far more
// submissions than the retention bound must leave the registry bounded,
// evicted ids answering 404, and the eviction counter exported.
func TestJobRetentionEviction(t *testing.T) {
	const retention, total = 8, 40
	stub := &stubExec{}
	ts, svc := newMetricsServer(t, 4, stub, func(cfg *Config) {
		cfg.JobRetention = retention
	})

	ids := make([]string, 0, total)
	for i := 0; i < total; i++ {
		// Unique seeds so every submission is a distinct job and a distinct
		// cache entry — nothing coalesces.
		job, err := svc.Submit(JobSpec{Benchmark: "compress", Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}

	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().Live > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("jobs never drained: %+v", svc.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	if got := len(svc.Jobs()); got != retention {
		t.Fatalf("registry holds %d jobs after %d submissions, want retention bound %d", got, total, retention)
	}
	st := svc.Stats()
	if st.Evicted != total-retention {
		t.Fatalf("evicted counter = %d, want %d", st.Evicted, total-retention)
	}

	// Exactly the retained jobs answer 200; every evicted id is 404.
	var ok200, notFound int
	for _, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			ok200++
		case http.StatusNotFound:
			notFound++
		default:
			t.Fatalf("GET /v1/jobs/%s: status %d", id, resp.StatusCode)
		}
	}
	if ok200 != retention || notFound != total-retention {
		t.Fatalf("job polls: %d ok / %d not-found, want %d/%d", ok200, notFound, retention, total-retention)
	}

	body := scrapeMetrics(t, ts.URL)
	if want := fmt.Sprintf("sweep_jobs_evicted_total %d", total-retention); !strings.Contains(body, want) {
		t.Fatalf("/metrics missing %q", want)
	}
	if want := fmt.Sprintf("sweep_jobs_retained %d", retention); !strings.Contains(body, want) {
		t.Fatalf("/metrics missing %q", want)
	}
}

// TestJobRetentionUnlimited keeps the pre-retention semantics reachable:
// a negative retention never evicts.
func TestJobRetentionUnlimited(t *testing.T) {
	stub := &stubExec{}
	_, svc := newMetricsServer(t, 2, stub, func(cfg *Config) {
		cfg.JobRetention = -1
	})
	for i := 0; i < 20; i++ {
		if _, err := svc.Submit(JobSpec{Benchmark: "compress", Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().Live > 0 {
		if time.Now().After(deadline) {
			t.Fatal("jobs never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(svc.Jobs()); got != 20 {
		t.Fatalf("unlimited retention holds %d jobs, want 20", got)
	}
	if ev := svc.Stats().Evicted; ev != 0 {
		t.Fatalf("unlimited retention evicted %d jobs", ev)
	}
}

// TestTable2FormatRejectedBeforeComputation: an unknown ?format= must 400
// without simulating anything.
func TestTable2FormatRejectedBeforeComputation(t *testing.T) {
	stub := &stubExec{}
	ts, svc := newMetricsServer(t, 2, stub, nil)

	resp, err := http.Get(ts.URL + "/v1/table2?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d, want 400", resp.StatusCode)
	}
	if got := stub.calls.Load(); got != 0 {
		t.Fatalf("rejected request executed %d simulations, want 0", got)
	}
	if done := svc.Stats().Pool.Completed; done != 0 {
		t.Fatalf("rejected request completed %d pool tasks, want 0", done)
	}
}

// TestTable2ClientDisconnect499: a client abandoning the request
// mid-computation is not a server error — it maps to 499 and the
// client-canceled counter, never a 5xx.
func TestTable2ClientDisconnect499(t *testing.T) {
	var once sync.Once
	started := make(chan struct{})
	gate := make(chan struct{})
	exec := func(spec JobSpec) (*Result, error) {
		once.Do(func() { close(started) })
		<-gate
		return &Result{Spec: spec}, nil
	}
	_, svc := newMetricsServer(t, 2, nil, func(cfg *Config) {
		cfg.exec = exec
	})
	// Registered after newMetricsServer so it runs (LIFO) before
	// svc.Close(), releasing the workers Close waits on.
	t.Cleanup(sync.OnceFunc(func() { close(gate) }))
	srv := NewServer(svc)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/v1/table2", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		srv.ServeHTTP(rec, req)
		close(done)
	}()

	<-started // at least one cell is executing
	cancel()  // the client goes away
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler never returned after client cancel")
	}

	if rec.Code != statusClientClosedRequest {
		t.Fatalf("client disconnect: status %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if got := svc.metrics.clientCanceled.Value(); got != 1 {
		t.Fatalf("client-canceled counter = %d, want 1", got)
	}

	// And the counter is visible in the exposition.
	mrec := httptest.NewRecorder()
	srv.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), "sweep_http_client_canceled_total 1") {
		t.Fatal("/metrics missing sweep_http_client_canceled_total 1")
	}
}

// nonFlusher hides every optional interface of the wrapped
// ResponseWriter, exactly what a buffering middleware can do.
type nonFlusher struct {
	http.ResponseWriter
}

// TestSweepNDJSONNonFlusher: the results stream must degrade gracefully —
// complete rows, no panic — when the ResponseWriter cannot flush.
func TestSweepNDJSONNonFlusher(t *testing.T) {
	stub := &stubExec{}
	_, svc := newMetricsServer(t, 2, stub, nil)
	srv := NewServer(svc)

	body := strings.NewReader(`{"benchmarks":["compress","ora"],"machines":["dual"],"schedulers":["none"]}`)
	crec := httptest.NewRecorder()
	srv.ServeHTTP(crec, httptest.NewRequest("POST", "/v1/sweeps", body))
	if crec.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: status %d, want 202: %s", crec.Code, crec.Body)
	}
	created := decodeJSON[SweepView](t, crec.Body)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(nonFlusher{rec}, httptest.NewRequest("GET", "/v1/sweeps/"+created.ID+"/results", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("results via non-flusher: status %d, want 200: %s", rec.Code, rec.Body)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("results via non-flusher: %d NDJSON rows, want 2:\n%s", len(lines), rec.Body)
	}
}

// TestMetricsExpositionEndToEnd runs one real (unstubbed) simulation
// through the service and checks the scrape carries the core stall-cause
// counters, occupancy histograms, and job-latency histograms the probes
// feed.
func TestMetricsExpositionEndToEnd(t *testing.T) {
	ts, svc := newMetricsServer(t, 2, nil, nil)

	job, err := svc.Submit(JobSpec{Benchmark: "compress", Machine: "dual", Scheduler: "local", Instructions: 20000})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, ts.URL, job.ID, JobDone)

	body := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`core_cycles_total `,
		`core_fetch_stall_cycles_total{cause="icache_miss"}`,
		`core_fetch_stall_cycles_total{cause="mispredict"}`,
		`core_distributions_total{kind="dual"}`,
		`core_dispatch_queue_occupancy_bucket{cluster="0",le="+Inf"}`,
		`sweep_job_total_seconds_count 1`,
		`sweep_job_queue_wait_seconds_count 1`,
		`sweep_job_attempts_count 1`,
		`sweep_jobs_finished_total{state="done"} 1`,
		`sweep_jobs_evicted_total 0`,
		`sweep_jobs_submitted_total 1`,
		`sweep_pool_completed_total`,
		`sweep_cache_misses_total 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The probed core counters must be live, not merely present: a 20k
	// instruction run simulates at least that many cycles.
	if !strings.Contains(body, "core_cycles_total 2") &&
		!strings.Contains(body, "core_cycles_total 3") {
		// Cheap sanity: 20k instructions on a dual machine takes 20k-40k
		// cycles, so the counter starts with 2 or 3.
		t.Errorf("core_cycles_total not in expected range:\n%s", grepLine(body, "core_cycles_total"))
	}
}

func grepLine(body, substr string) string {
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			return line
		}
	}
	return "(absent)"
}
