package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"multicluster/internal/experiment"
	"multicluster/internal/workload"
)

func newTestServer(t *testing.T, workers int, stub *stubExec) (*httptest.Server, *Service) {
	t.Helper()
	cfg := Config{Workers: workers}
	if stub != nil {
		cfg.exec = stub.exec
	}
	svc := NewService(cfg)
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, svc
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON[T any](t *testing.T, r io.Reader) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func waitForState(t *testing.T, base, id string, want JobState) JobView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		view := decodeJSON[JobView](t, resp.Body)
		resp.Body.Close()
		if view.State == want {
			return view
		}
		switch view.State {
		case JobDone, JobFailed, JobCanceled:
			t.Fatalf("job %s reached terminal state %s, want %s (error: %s)", id, view.State, want, view.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
	return JobView{}
}

func TestServerJobLifecycle(t *testing.T) {
	stub := &stubExec{}
	ts, _ := newTestServer(t, 2, stub)

	resp := postJSON(t, ts.URL+"/v1/jobs", JobSpec{Benchmark: "compress", Scheduler: "local"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d, want 202", resp.StatusCode)
	}
	view := decodeJSON[JobView](t, resp.Body)
	resp.Body.Close()
	if view.ID == "" || view.Hash == "" {
		t.Fatalf("submitted job missing id or hash: %+v", view)
	}

	done := waitForState(t, ts.URL, view.ID, JobDone)
	if done.Result == nil || done.Result.Spec.Benchmark != "compress" {
		t.Fatalf("finished job carries no result: %+v", done)
	}
	if done.Result.Hash != view.Hash {
		t.Fatalf("result hash %s != job hash %s", done.Result.Hash, view.Hash)
	}

	// The job list includes it.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	page := decodeJSON[JobPage](t, resp.Body)
	resp.Body.Close()
	if len(page.Jobs) != 1 || page.Jobs[0].ID != view.ID {
		t.Fatalf("GET /v1/jobs = %+v, want the one submitted job", page)
	}
	if page.Next != "" {
		t.Fatalf("single-page listing has a next cursor: %q", page.Next)
	}
}

// TestServerJobsPagination walks the job listing with ?limit=&after=
// cursors and checks the pages concatenate to the full submission order
// with no duplicates or gaps.
func TestServerJobsPagination(t *testing.T) {
	stub := &stubExec{}
	ts, _ := newTestServer(t, 2, stub)

	var want []string
	for _, b := range []string{"compress", "ora", "doduc", "gcc1", "tomcatv"} {
		resp := postJSON(t, ts.URL+"/v1/jobs", JobSpec{Benchmark: b})
		view := decodeJSON[JobView](t, resp.Body)
		resp.Body.Close()
		want = append(want, view.ID)
	}

	var got []string
	after := ""
	for pages := 0; ; pages++ {
		if pages > 10 {
			t.Fatal("pagination never terminated")
		}
		resp, err := http.Get(ts.URL + "/v1/jobs?limit=2&after=" + after)
		if err != nil {
			t.Fatal(err)
		}
		page := decodeJSON[JobPage](t, resp.Body)
		resp.Body.Close()
		if len(page.Jobs) > 2 {
			t.Fatalf("page holds %d jobs, want <= 2", len(page.Jobs))
		}
		for _, j := range page.Jobs {
			got = append(got, j.ID)
		}
		if page.Next == "" {
			break
		}
		after = page.Next
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("paginated ids = %v, want %v", got, want)
	}

	// A bad limit is refused with the structured envelope.
	resp, err := http.Get(ts.URL + "/v1/jobs?limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	env := decodeJSON[struct {
		Error APIError `json:"error"`
	}](t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeInvalidRequest {
		t.Fatalf("bad limit = %d %+v, want 400 %s", resp.StatusCode, env, CodeInvalidRequest)
	}
}

func TestServerDuplicateJobsHitCache(t *testing.T) {
	stub := &stubExec{}
	ts, _ := newTestServer(t, 2, stub)

	spec := JobSpec{Benchmark: "ora"}
	resp := postJSON(t, ts.URL+"/v1/jobs", spec)
	first := decodeJSON[JobView](t, resp.Body)
	resp.Body.Close()
	waitForState(t, ts.URL, first.ID, JobDone)

	resp = postJSON(t, ts.URL+"/v1/jobs", spec)
	second := decodeJSON[JobView](t, resp.Body)
	resp.Body.Close()
	done := waitForState(t, ts.URL, second.ID, JobDone)
	if !done.CacheHit {
		t.Fatalf("duplicate job was not served from cache: %+v", done)
	}
	if done.Hash != first.Hash {
		t.Fatalf("identical specs got different hashes: %s vs %s", done.Hash, first.Hash)
	}
	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("duplicate submission executed %d simulations, want 1", got)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeJSON[Stats](t, resp.Body)
	resp.Body.Close()
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 || stats.Submitted != 2 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 2 submitted", stats)
	}
}

func TestServerCancelJob(t *testing.T) {
	stub := &stubExec{started: make(chan string, 1), gate: make(chan struct{})}
	ts, _ := newTestServer(t, 1, stub)

	// Occupy the single worker, then queue a second job and cancel it.
	resp := postJSON(t, ts.URL+"/v1/jobs", JobSpec{Benchmark: "compress"})
	running := decodeJSON[JobView](t, resp.Body)
	resp.Body.Close()
	<-stub.started

	resp = postJSON(t, ts.URL+"/v1/jobs", JobSpec{Benchmark: "doduc"})
	queued := decodeJSON[JobView](t, resp.Body)
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	view := waitForState(t, ts.URL, queued.ID, JobCanceled)
	if view.Result != nil {
		t.Fatalf("cancelled job has a result: %+v", view)
	}

	close(stub.gate)
	waitForState(t, ts.URL, running.ID, JobDone)
	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("%d simulations ran, want 1 (the cancelled job never executed)", got)
	}
}

// TestServerTable2 drives the real execution kernel end to end: the HTTP
// response must agree with the in-process experiment path.
func TestServerTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 18 real simulations")
	}
	ts, svc := newTestServer(t, 0, nil)

	const n = 20_000
	resp, err := http.Get(fmt.Sprintf("%s/v1/table2?n=%d&seed=4242", ts.URL, n))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET /v1/table2 = %d: %s", resp.StatusCode, body)
	}
	rows := decodeJSON[[]experiment.RowExport](t, resp.Body)
	resp.Body.Close()

	benches := workload.All()
	if len(rows) != len(benches) {
		t.Fatalf("table2 has %d rows, want %d", len(rows), len(benches))
	}
	for i, r := range rows {
		if r.Benchmark != benches[i].Name {
			t.Fatalf("row %d benchmark = %s, want %s", i, r.Benchmark, benches[i].Name)
		}
		if r.SingleCycles == 0 || r.DualNoneCycles == 0 || r.DualLocalCycles == 0 {
			t.Fatalf("row %s has zero cycle counts: %+v", r.Benchmark, r)
		}
	}

	// A repeated request is served entirely from the cache.
	before := svc.Stats().Cache
	resp, err = http.Get(fmt.Sprintf("%s/v1/table2?n=%d&seed=4242&format=csv", ts.URL, n))
	if err != nil {
		t.Fatal(err)
	}
	csvBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(csvBody), rows[0].Benchmark) {
		t.Fatalf("csv output missing benchmark names:\n%s", csvBody)
	}
	after := svc.Stats().Cache
	if after.Misses != before.Misses {
		t.Fatalf("repeated table2 recomputed: misses %d -> %d", before.Misses, after.Misses)
	}
	if after.Hits != before.Hits+int64(3*len(benches)) {
		t.Fatalf("repeated table2 hits %d -> %d, want +%d", before.Hits, after.Hits, 3*len(benches))
	}
}

func TestServerGracefulDrain(t *testing.T) {
	stub := &stubExec{started: make(chan string, 1), gate: make(chan struct{})}
	ts, svc := newTestServer(t, 1, stub)

	resp := postJSON(t, ts.URL+"/v1/jobs", JobSpec{Benchmark: "compress"})
	inFlight := decodeJSON[JobView](t, resp.Body)
	resp.Body.Close()
	<-stub.started

	drained := make(chan error, 1)
	go func() { drained <- svc.Drain(context.Background()) }()

	// While draining, new submissions are refused with 503.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp := postJSON(t, ts.URL+"/v1/jobs", JobSpec{Benchmark: "ora"})
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("POST /v1/jobs during drain = %d, want 503", code)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The in-flight job still completes before Drain returns.
	close(stub.gate)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	view := waitForState(t, ts.URL, inFlight.ID, JobDone)
	if view.Result == nil {
		t.Fatalf("drained job lost its result: %+v", view)
	}
}

func TestServerBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, 1, &stubExec{})

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/jobs", JobSpec{Benchmark: "nonesuch"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown benchmark = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/table2?width=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad width = %d, want 400", resp.StatusCode)
	}
}
