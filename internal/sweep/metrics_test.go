package sweep

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multicluster/internal/core"
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

// metricsSeeds hands TestMetricsExpositionEndToEnd fresh seeds on every
// invocation, so none of its specs is already in the process-wide run memo
// (a memo hit simulates nothing and would feed the core_* series nothing).
var metricsSeeds atomic.Int64

// TestMetricsExpositionEndToEnd runs distinct real (unstubbed) specs
// concurrently through a two-worker service and checks that the core_*
// series equal the sums of those runs' Stats exactly, that a cache hit
// adds nothing to them, and that the job-latency and service series count
// every job.
func TestMetricsExpositionEndToEnd(t *testing.T) {
	ts, svc := newMetricsServer(t, 2, nil, nil)

	seed := 7_310_000 + 100*metricsSeeds.Add(1)
	specs := []JobSpec{
		{Benchmark: "compress", Machine: "dual", Scheduler: "local"},
		{Benchmark: "ora", Machine: "dual2", Scheduler: "none"},
		{Benchmark: "gcc1", Machine: "single", Scheduler: "none"},
		{Benchmark: "doduc", Machine: "dual", Scheduler: "none"}, // replays
	}
	jobs := make([]*Job, len(specs))
	for i := range specs {
		specs[i].Seed = seed + int64(i)
		specs[i].Instructions = 20_000
		job, err := svc.Submit(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	var want struct {
		cycles, replays, squashed, single, dual int64
		stalls                                  core.FetchStalls
		queueSum                                [2]int64
	}
	for i, job := range jobs {
		res := awaitResult(t, job)
		if job.View().CacheHit {
			t.Fatalf("spec %d was a cache hit; the test needs every spec simulated", i)
		}
		st := res.Stats.Stats
		want.cycles += st.Cycles
		want.replays += st.Replays
		want.squashed += st.ReplayedInstructions
		want.single += st.SingleDist
		want.dual += st.DualDist
		want.stalls.ICacheMiss += st.Fetch.ICacheMiss
		want.stalls.Mispredict += st.Fetch.Mispredict
		want.stalls.QueueFull += st.Fetch.QueueFull
		want.stalls.RegsFull += st.Fetch.RegsFull
		want.stalls.Replay += st.Fetch.Replay
		for c := range want.queueSum {
			want.queueSum[c] += st.Cluster[c].QueueOccupancySum
		}
	}
	if want.replays == 0 {
		t.Error("no spec replayed; the replay series were not exercised")
	}

	body := scrapeSettled(t, ts.URL)
	for series, v := range map[string]int64{
		`core_cycles_total`:                                           want.cycles,
		`core_replays_total`:                                          want.replays,
		`core_replay_squashed_instructions_total`:                     want.squashed,
		`core_distributions_total{kind="single"}`:                     want.single,
		`core_distributions_total{kind="dual"}`:                       want.dual,
		`core_fetch_stall_cycles_total{cause="icache_miss"}`:          want.stalls.ICacheMiss,
		`core_fetch_stall_cycles_total{cause="mispredict"}`:           want.stalls.Mispredict,
		`core_fetch_stall_cycles_total{cause="queue_full"}`:           want.stalls.QueueFull,
		`core_fetch_stall_cycles_total{cause="regs_full"}`:            want.stalls.RegsFull,
		`core_fetch_stall_cycles_total{cause="replay"}`:               want.stalls.Replay,
		`core_dispatch_queue_occupancy_count{cluster="0"}`:            want.cycles,
		`core_dispatch_queue_occupancy_count{cluster="1"}`:            want.cycles,
		`core_dispatch_queue_occupancy_bucket{cluster="0",le="+Inf"}`: want.cycles,
		`core_dispatch_queue_occupancy_sum{cluster="0"}`:              want.queueSum[0],
		`core_dispatch_queue_occupancy_sum{cluster="1"}`:              want.queueSum[1],
		`core_operand_buffer_occupancy_count{cluster="1"}`:            want.cycles,
		`core_result_buffer_occupancy_count{cluster="0"}`:             want.cycles,
		`sweep_job_total_seconds_count`:                               4,
		`sweep_job_queue_wait_seconds_count`:                          4,
		`sweep_job_attempts_count`:                                    4,
		`sweep_jobs_finished_total{state="done"}`:                     4,
		`sweep_jobs_evicted_total`:                                    0,
		`sweep_jobs_submitted_total`:                                  4,
		`sweep_cache_misses_total`:                                    4,
		`sweep_pool_completed_total`:                                  4,
	} {
		if got := metricValue(t, body, series); got != float64(v) {
			t.Errorf("%s = %v, want %d", series, got, v)
		}
	}

	// A repeat is a cache hit: it simulates nothing, so no core_* line
	// moves.
	repeat, err := svc.Submit(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	awaitResult(t, repeat)
	if !repeat.View().CacheHit {
		t.Fatal("repeated spec was not a cache hit")
	}
	after := scrapeSettled(t, ts.URL)
	if got := metricValue(t, after, `sweep_cache_hits_total`); got != 1 {
		t.Errorf("sweep_cache_hits_total = %v after the repeat, want 1", got)
	}
	if got := metricValue(t, after, `sweep_pool_completed_total`); got != 4 {
		t.Errorf("sweep_pool_completed_total = %v after the repeat, want 4", got)
	}
	if a, b := coreLines(body), coreLines(after); a != b {
		t.Errorf("a cache hit moved the core_* series:\nbefore:\n%s\nafter:\n%s", a, b)
	}
}

// awaitResult waits for job to finish and returns its result.
func awaitResult(t *testing.T, job *Job) *Result {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish", job.View().ID)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatalf("job %s: %v", job.View().ID, err)
	}
	return res
}

// scrapeSettled scrapes /metrics once no job is live. A job's done
// channel closes just before its latency observations are recorded, and
// the live count drops just after, so a settled scrape has them all.
func scrapeSettled(t *testing.T, base string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		body := scrapeMetrics(t, base)
		if metricValue(t, body, "sweep_jobs_live") == 0 || time.Now().After(deadline) {
			return body
		}
		time.Sleep(time.Millisecond)
	}
}

// metricValue returns the value of one exposition series (name plus
// labels exactly as rendered).
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}

// coreLines returns the core_* sample lines of an exposition.
func coreLines(body string) string {
	var sb strings.Builder
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "core_") {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
