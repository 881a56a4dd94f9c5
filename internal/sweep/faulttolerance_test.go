package sweep

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"multicluster/internal/faultinject"
)

// newHTTPServer mounts an existing service on an httptest server and ties
// both lifetimes to the test.
func newHTTPServer(t *testing.T, svc *Service) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

// flakyExec fails deterministically for the first failures calls per spec
// hash-ish key, then succeeds.
type flakyExec struct {
	calls    atomic.Int64
	failures int64
	terminal bool // fail with a non-transient error instead
}

func (f *flakyExec) exec(spec JobSpec) (*Result, error) {
	n := f.calls.Add(1)
	if n <= f.failures {
		if f.terminal {
			return nil, errors.New("deterministic simulator error")
		}
		return nil, &faultinject.Fault{Site: "sim", Kind: faultinject.KindError, Key: "test"}
	}
	return &Result{Spec: spec}, nil
}

func TestRetryClearsTransientFailure(t *testing.T) {
	flaky := &flakyExec{failures: 2}
	svc := NewService(Config{
		Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 4, Base: time.Millisecond, Max: 5 * time.Millisecond},
		exec:    flaky.exec,
	})
	defer svc.Close()

	job, err := svc.Submit(JobSpec{Benchmark: "compress"})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if st := job.State(); st != JobDone {
		_, jerr := job.Result()
		t.Fatalf("flaky job state = %s (%v), want done after retries", st, jerr)
	}
	if got := flaky.calls.Load(); got != 3 {
		t.Fatalf("flaky job executed %d times, want 3 (2 failures + 1 success)", got)
	}
	if v := job.View(); v.Attempts != 3 {
		t.Fatalf("job view attempts = %d, want 3", v.Attempts)
	}
	if got := svc.Stats().Retries; got != 2 {
		t.Fatalf("service retries = %d, want 2", got)
	}
}

func TestTerminalErrorNeverRetried(t *testing.T) {
	flaky := &flakyExec{failures: 100, terminal: true}
	svc := NewService(Config{
		Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 5, Base: time.Millisecond},
		exec:    flaky.exec,
	})
	defer svc.Close()

	job, err := svc.Submit(JobSpec{Benchmark: "compress"})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if st := job.State(); st != JobFailed {
		t.Fatalf("terminal-error job state = %s, want failed", st)
	}
	if got := flaky.calls.Load(); got != 1 {
		t.Fatalf("deterministic error executed %d times, want 1 (never retried)", got)
	}
	if got := svc.Stats().Retries; got != 0 {
		t.Fatalf("service retries = %d, want 0", got)
	}
}

func TestRetryExhaustionFailsJob(t *testing.T) {
	flaky := &flakyExec{failures: 100}
	svc := NewService(Config{
		Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond},
		exec:    flaky.exec,
	})
	defer svc.Close()

	job, err := svc.Submit(JobSpec{Benchmark: "compress"})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if st := job.State(); st != JobFailed {
		t.Fatalf("exhausted job state = %s, want failed", st)
	}
	if got := flaky.calls.Load(); got != 3 {
		t.Fatalf("exhausted job executed %d times, want MaxAttempts=3", got)
	}
}

func TestJobDeadlineEnforced(t *testing.T) {
	stub := &stubExec{gate: make(chan struct{})} // released before Close so the pool can drain
	svc := NewService(Config{Workers: 1, JobTimeout: 20 * time.Millisecond, exec: stub.exec})
	defer svc.Close()
	defer close(stub.gate)

	job, err := svc.Submit(JobSpec{Benchmark: "compress"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job with 20ms deadline never finished")
	}
	if st := job.State(); st != JobCanceled {
		t.Fatalf("timed-out job state = %s, want canceled", st)
	}
	if _, jerr := job.Result(); !errors.Is(jerr, context.DeadlineExceeded) {
		t.Fatalf("timed-out job error = %v, want DeadlineExceeded", jerr)
	}
}

func TestPerJobTimeoutOverridesDefault(t *testing.T) {
	stub := &stubExec{gate: make(chan struct{})}
	// Service default is generous; the spec's own timeout is tight.
	svc := NewService(Config{Workers: 1, JobTimeout: time.Hour, exec: stub.exec})
	defer svc.Close()
	defer close(stub.gate)

	job, err := svc.Submit(JobSpec{Benchmark: "compress", TimeoutMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job with 20ms spec timeout never finished")
	}
	if st := job.State(); st != JobCanceled {
		t.Fatalf("spec-timeout job state = %s, want canceled", st)
	}
}

func TestTimeoutExcludedFromHash(t *testing.T) {
	a, err := JobSpec{Benchmark: "compress", TimeoutMS: 5000}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	b, err := JobSpec{Benchmark: "compress"}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("timeout_ms changed the content hash; it must be an execution parameter only")
	}
	if _, err := (JobSpec{Benchmark: "compress", TimeoutMS: -1}).Normalize(); err == nil {
		t.Fatal("negative timeout_ms accepted")
	}
}

func TestAdmissionShedsWhenFull(t *testing.T) {
	stub := &stubExec{gate: make(chan struct{})}
	svc := NewService(Config{Workers: 1, MaxLive: 2, exec: stub.exec})
	defer svc.Close()

	j1, err := svc.Submit(JobSpec{Benchmark: "compress"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := svc.Submit(JobSpec{Benchmark: "ora"})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Ready() {
		t.Fatal("service at MaxLive still reports ready")
	}
	if _, err := svc.Submit(JobSpec{Benchmark: "doduc"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit over MaxLive = %v, want ErrOverloaded", err)
	}
	if got := svc.Stats().Shed; got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	// Finishing a job frees the slot.
	close(stub.gate)
	<-j1.Done()
	<-j2.Done()
	if !svc.Ready() {
		t.Fatal("service not ready after jobs finished")
	}
	j3, err := svc.Submit(JobSpec{Benchmark: "doduc"})
	if err != nil {
		t.Fatalf("submit after drain-down: %v", err)
	}
	<-j3.Done()
}

func TestPerClientCap(t *testing.T) {
	stub := &stubExec{gate: make(chan struct{})}
	svc := NewService(Config{Workers: 1, MaxPerClient: 1, exec: stub.exec})
	defer svc.Close()
	defer close(stub.gate)

	if _, err := svc.SubmitFor("alice", JobSpec{Benchmark: "compress"}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitFor("alice", JobSpec{Benchmark: "ora"}); !errors.Is(err, ErrClientBusy) {
		t.Fatalf("second alice submit = %v, want ErrClientBusy", err)
	}
	// Another client (and the anonymous client) still get in.
	if _, err := svc.SubmitFor("bob", JobSpec{Benchmark: "ora"}); err != nil {
		t.Fatalf("bob submit: %v", err)
	}
	if _, err := svc.Submit(JobSpec{Benchmark: "doduc"}); err != nil {
		t.Fatalf("anonymous submit: %v", err)
	}
}

func TestServerShedding429(t *testing.T) {
	stub := &stubExec{gate: make(chan struct{})}
	svc := NewService(Config{Workers: 1, MaxLive: 1, exec: stub.exec})
	ts := newHTTPServer(t, svc)
	defer close(stub.gate)

	resp := postJSON(t, ts.URL+"/v1/jobs", JobSpec{Benchmark: "compress"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/jobs", JobSpec{Benchmark: "ora"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over MaxLive = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After header")
	}

	// readyz flips under overload.
	r2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz under overload = %d, want 503", r2.StatusCode)
	}
}

func TestServerReadyz(t *testing.T) {
	svc := NewService(Config{Workers: 1, exec: (&stubExec{}).exec})
	ts := newHTTPServer(t, svc)

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /readyz = %d, want 200", resp.StatusCode)
	}

	go svc.Drain(context.Background())
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET /readyz while draining = %d, want 503", resp.StatusCode)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestServerBodyTooLarge(t *testing.T) {
	ts, _ := newTestServer(t, 1, &stubExec{})
	huge := `{"benchmark":"compress","pad":"` + strings.Repeat("x", maxBodyBytes+1024) + `"}`
	for _, path := range []string{"/v1/jobs", "/v1/sweeps"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with huge body = %d, want 413", path, resp.StatusCode)
		}
	}
}
