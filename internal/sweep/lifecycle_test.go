package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"multicluster/internal/experiment"
)

// eightCellGrid expands to 8 distinct cells (4 benchmarks × 2 schedulers
// on the dual machine), big enough to kill a server in the middle of.
func eightCellGrid() Grid {
	return Grid{
		Benchmarks: []string{"compress", "ora", "doduc", "gcc1"},
		Machines:   []string{"dual"},
		Schedulers: []string{"none", "local"},
	}
}

func getSweepView(t *testing.T, base, id string) (SweepView, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return SweepView{}, resp.StatusCode
	}
	return decodeJSON[SweepView](t, resp.Body), resp.StatusCode
}

func waitForSweep(t *testing.T, base, id string, ok func(SweepView) bool) SweepView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v, code := getSweepView(t, base, id)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/sweeps/%s = %d", id, code)
		}
		if ok(v) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s never reached the wanted state", id)
	return SweepView{}
}

// readResults fetches one results page and returns its raw bytes plus
// the decoded rows.
func readResults(t *testing.T, base, id, query string) ([]byte, []SweepResultRow) {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id + "/results" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET results%s = %d: %s", query, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var rows []SweepResultRow
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row SweepResultRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	return raw, rows
}

// TestSweepLifecycle drives a sweep resource through the full API:
// create (202 + Location), progress polling, in-order result streaming,
// and the structured not-found envelope for unknown ids.
func TestSweepLifecycle(t *testing.T) {
	stub := &stubExec{}
	ts, _ := newTestServer(t, 2, stub)

	resp := postJSON(t, ts.URL+"/v1/sweeps", eightCellGrid())
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("POST /v1/sweeps = %d, want 202: %s", resp.StatusCode, body)
	}
	created := decodeJSON[SweepView](t, resp.Body)
	resp.Body.Close()
	if created.ID == "" || created.Total != 8 || created.State != SweepRunning {
		t.Fatalf("created sweep = %+v, want 8-cell running sweep with an id", created)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/sweeps/"+created.ID {
		t.Fatalf("Location = %q, want /v1/sweeps/%s", loc, created.ID)
	}

	done := waitForSweep(t, ts.URL, created.ID, func(v SweepView) bool { return v.State == SweepDone })
	if done.Done != 8 || done.OK != 8 || done.Failed != 0 {
		t.Fatalf("finished sweep = %+v, want done=8 ok=8 failed=0", done)
	}

	_, rows := readResults(t, ts.URL, created.ID, "")
	if len(rows) != 8 {
		t.Fatalf("results streamed %d rows, want 8", len(rows))
	}
	for i, row := range rows {
		if row.Index != i || row.Total != 8 {
			t.Fatalf("row %d = index %d total %d, want in grid order", i, row.Index, row.Total)
		}
		if row.Error != "" || row.Result == nil {
			t.Fatalf("row %d failed: %+v", i, row)
		}
	}
	if got := stub.calls.Load(); got != 8 {
		t.Fatalf("sweep executed %d simulations, want 8", got)
	}

	// The listing includes it.
	lresp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	page := decodeJSON[SweepPage](t, lresp.Body)
	lresp.Body.Close()
	if len(page.Sweeps) != 1 || page.Sweeps[0].ID != created.ID {
		t.Fatalf("GET /v1/sweeps = %+v, want the one sweep", page)
	}

	// Unknown ids answer the structured envelope with a stable code.
	eresp, err := http.Get(ts.URL + "/v1/sweeps/s999")
	if err != nil {
		t.Fatal(err)
	}
	env := decodeJSON[struct {
		Error APIError `json:"error"`
	}](t, eresp.Body)
	eresp.Body.Close()
	if eresp.StatusCode != http.StatusNotFound || env.Error.Code != CodeNotFound {
		t.Fatalf("unknown sweep = %d %+v, want 404 %s", eresp.StatusCode, env, CodeNotFound)
	}
}

// TestSweepCancel: DELETE stops a sweep whose cells are gated mid-flight;
// remaining cells never execute and the state is durable.
func TestSweepCancel(t *testing.T) {
	stub := &stubExec{started: make(chan string, 16), gate: make(chan struct{})}
	ts, _ := newTestServer(t, 1, stub)

	resp := postJSON(t, ts.URL+"/v1/sweeps", eightCellGrid())
	created := decodeJSON[SweepView](t, resp.Body)
	resp.Body.Close()
	<-stub.started // one cell is executing, the rest queued

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+created.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	view := decodeJSON[SweepView](t, dresp.Body)
	dresp.Body.Close()
	if view.State != SweepCanceled {
		t.Fatalf("DELETE returned state %s, want %s", view.State, SweepCanceled)
	}
	close(stub.gate)

	// The queued cells never execute: only the in-flight one ran.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && stub.calls.Load() < 1 {
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let any stragglers surface
	if got := stub.calls.Load(); got > 2 {
		t.Fatalf("canceled sweep executed %d cells, want at most the in-flight ones", got)
	}
}

// TestSweepCursorResume reads a result stream in two halves — paginated
// prefix, then ?cursor=k — and checks the concatenation is byte-identical
// to one uninterrupted read, with no duplicate or missing indices.
func TestSweepCursorResume(t *testing.T) {
	stub := &stubExec{}
	ts, _ := newTestServer(t, 2, stub)

	resp := postJSON(t, ts.URL+"/v1/sweeps", eightCellGrid())
	created := decodeJSON[SweepView](t, resp.Body)
	resp.Body.Close()
	waitForSweep(t, ts.URL, created.ID, func(v SweepView) bool { return v.State == SweepDone })

	full, fullRows := readResults(t, ts.URL, created.ID, "")
	head, headRows := readResults(t, ts.URL, created.ID, "?cursor=0&limit=3")
	tail, tailRows := readResults(t, ts.URL, created.ID, "?cursor=3")

	if len(headRows) != 3 || len(tailRows) != 5 || len(fullRows) != 8 {
		t.Fatalf("row counts head=%d tail=%d full=%d, want 3/5/8", len(headRows), len(tailRows), len(fullRows))
	}
	if !bytes.Equal(append(append([]byte{}, head...), tail...), full) {
		t.Fatalf("cursor-resumed stream differs from uninterrupted read:\nhead+tail:\n%s%s\nfull:\n%s", head, tail, full)
	}
	seen := make(map[int]bool)
	for i, row := range append(headRows, tailRows...) {
		if row.Index != i {
			t.Fatalf("resumed stream row %d has index %d: duplicate or gap", i, row.Index)
		}
		seen[row.Index] = true
	}
	if len(seen) != 8 {
		t.Fatalf("resumed stream covered %d distinct cells, want 8", len(seen))
	}
}

// TestSweepKillRestartResume is the crash acceptance test: a server dies
// mid-sweep (no graceful drain, no terminal journal record), a new
// server opens the same journals, and the sweep resumes under its
// original id — already-journaled cells replay from the result journal
// with zero recomputation, and the full result stream read after the
// restart is byte-identical to what the first server had started
// serving.
func TestSweepKillRestartResume(t *testing.T) {
	dir := t.TempDir()
	resultsPath := filepath.Join(dir, "results.journal")
	sweepsPath := filepath.Join(dir, "sweeps.journal")

	j1, err := OpenJournal(resultsPath)
	if err != nil {
		t.Fatal(err)
	}
	sj1, err := OpenSweepJournal(sweepsPath, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The first server's kernel completes exactly the first half of the
	// grid, then wedges: Grid.Expand iterates benchmarks outermost, so
	// the compress/ora cells are grid indices 0-3 and the doduc/gcc1
	// cells are 4-7. The latter block until "the process dies" and then
	// fail, so they are never journaled. Workers is wide enough that the
	// wedged cells cannot starve the completing ones.
	killed := make(chan struct{})
	exec1 := func(spec JobSpec) (*Result, error) {
		if spec.Benchmark == "doduc" || spec.Benchmark == "gcc1" {
			<-killed
			return nil, errors.New("process killed")
		}
		return &Result{Spec: spec}, nil
	}
	svc1 := NewService(Config{Workers: 8, Journal: j1, SweepJournal: sj1, exec: exec1})
	ts1 := httptest.NewServer(NewServer(svc1))

	resp := postJSON(t, ts1.URL+"/v1/sweeps", eightCellGrid())
	created := decodeJSON[SweepView](t, resp.Body)
	resp.Body.Close()
	if created.Total != 8 {
		t.Fatalf("sweep expanded to %d cells, want 8", created.Total)
	}
	waitForSweep(t, ts1.URL, created.ID, func(v SweepView) bool { return v.Done >= 4 })

	// What the first server served before dying.
	prefix, prefixRows := readResults(t, ts1.URL, created.ID, "?cursor=0&limit=4")
	if len(prefixRows) != 4 {
		t.Fatalf("pre-kill read returned %d rows, want 4", len(prefixRows))
	}

	// Kill -9: no drain, no terminal sweep record. The blocked kernel
	// calls die with the process.
	ts1.Close()
	close(killed)
	svc1.Close()
	j1.Close()
	sj1.Close()

	// Restart on the same journals.
	j2, err := OpenJournal(resultsPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(j2.Recovered()); got != 4 {
		t.Fatalf("result journal recovered %d cells, want 4", got)
	}
	sj2, err := OpenSweepJournal(sweepsPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	var calls2 atomic.Int64
	exec2 := func(spec JobSpec) (*Result, error) {
		calls2.Add(1)
		return &Result{Spec: spec}, nil
	}
	svc2 := NewService(Config{Workers: 2, Journal: j2, SweepJournal: sj2, exec: exec2})
	ts2 := httptest.NewServer(NewServer(svc2))
	t.Cleanup(func() {
		ts2.Close()
		svc2.Close()
		j2.Close()
		sj2.Close()
	})

	// The sweep resumes under its original id and runs to completion.
	done := waitForSweep(t, ts2.URL, created.ID, func(v SweepView) bool { return v.State == SweepDone })
	if !done.Resumed {
		t.Fatalf("recovered sweep not marked resumed: %+v", done)
	}
	if done.Done != 8 || done.OK != 8 {
		t.Fatalf("resumed sweep = %+v, want all 8 cells ok", done)
	}

	// No recomputation: only the 4 never-journaled cells executed.
	if got := calls2.Load(); got != 4 {
		t.Fatalf("restart recomputed: %d simulations ran, want 4 (journaled cells must replay from cache)", got)
	}

	// Byte-identical results across the crash: the full post-restart
	// stream starts with exactly the bytes the first server served.
	full, fullRows := readResults(t, ts2.URL, created.ID, "?cursor=0")
	if len(fullRows) != 8 {
		t.Fatalf("post-restart stream has %d rows, want 8", len(fullRows))
	}
	if !bytes.HasPrefix(full, prefix) {
		t.Fatalf("post-restart results diverge from pre-kill stream:\npre-kill:\n%s\npost-restart:\n%s", prefix, full)
	}
	// And the crash point is resumable directly by cursor.
	tail, tailRows := readResults(t, ts2.URL, created.ID, "?cursor=4")
	if len(tailRows) != 4 {
		t.Fatalf("cursor=4 resume returned %d rows, want 4", len(tailRows))
	}
	if !bytes.Equal(append(append([]byte{}, prefix...), tail...), full) {
		t.Fatal("pre-kill prefix + cursor-resumed tail != uninterrupted post-restart read")
	}
}

// TestSweepJournalCancelNotResumed: a canceled sweep must stay canceled
// across a restart — cancellation is a client decision recovery must not
// undo.
func TestSweepJournalCancelNotResumed(t *testing.T) {
	dir := t.TempDir()
	sweepsPath := filepath.Join(dir, "sweeps.journal")

	sj1, err := OpenSweepJournal(sweepsPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	stub := &stubExec{started: make(chan string, 16), gate: make(chan struct{})}
	svc1 := NewService(Config{Workers: 1, SweepJournal: sj1, exec: stub.exec})
	h, err := svc1.CreateSweep(context.Background(), "tenant-a", eightCellGrid())
	if err != nil {
		t.Fatal(err)
	}
	<-stub.started
	if _, ok := svc1.CancelSweep(h.ID); !ok {
		t.Fatal("cancel failed")
	}
	close(stub.gate)
	svc1.Close()
	sj1.Close()

	sj2, err := OpenSweepJournal(sweepsPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sj2.Close()
	if got := len(sj2.Recovered()); got != 0 {
		t.Fatalf("canceled sweep survived recovery: %d recovered, want 0", got)
	}
}

// TestSweepSharesOneTraceAcrossCells runs a real four-machine sweep and
// asserts the generation-count property end to end: concurrent
// cells over one (workload, seed, budget) share a single materialized
// trace — generated exactly once — while every cell still succeeds. Run
// with -race this also exercises concurrent artifact readers.
func TestSweepSharesOneTraceAcrossCells(t *testing.T) {
	svc := NewService(Config{Workers: 4})
	defer svc.Close()

	grid := Grid{
		Benchmarks:   []string{"ora"},
		Machines:     []string{"single", "dual", "single4", "dual2"},
		Schedulers:   []string{"none"},
		Seeds:        []int64{777001}, // private key space for this test
		Instructions: 8_000,
	}
	before := experiment.TraceGenerations()
	h, err := svc.CreateSweep(context.Background(), "batch-test", grid)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for h.State() == SweepRunning {
		if time.Now().After(deadline) {
			t.Fatal("sweep did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h.State() != SweepDone {
		t.Fatalf("sweep state = %s, want done", h.State())
	}
	for i := 0; i < h.Total(); i++ {
		row, ok := h.Row(i)
		if !ok {
			t.Fatalf("row %d missing", i)
		}
		if row.Error != "" || row.Result == nil {
			t.Fatalf("row %d failed: %+v", i, row)
		}
	}
	if got := experiment.TraceGenerations() - before; got != 1 {
		t.Errorf("sweep generated the trace %d times, want exactly once", got)
	}
}

// TestSweepResultsCursorBeyondGrid is the regression test for the results
// stream's cursor validation: a cursor past the grid size used to return
// 200 with an empty body — indistinguishable from a completed read — and
// now fails loudly. cursor == Total stays a valid empty tail.
func TestSweepResultsCursorBeyondGrid(t *testing.T) {
	stub := &stubExec{}
	ts, svc := newTestServer(t, 2, stub)

	h, err := svc.CreateSweep(context.Background(), "", Grid{
		Benchmarks: []string{"ora"},
		Machines:   []string{"dual"},
		Schedulers: []string{"none", "local"},
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + h.ID + "/results?cursor=3")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cursor beyond grid = %d (%s), want 400", resp.StatusCode, body)
	}
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != CodeInvalidRequest {
		t.Fatalf("cursor beyond grid error envelope = %s, want code %q", body, CodeInvalidRequest)
	}

	// cursor == Total is a legitimate resume position: 200 with no rows.
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + h.ID + "/results?cursor=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cursor == total = %d, want 200", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("cursor == total streamed %q, want empty", body)
	}
}

// TestCanceledSweepSimulatesNothing is the regression test for cells
// computed behind a sweep's back: a sweep canceled while its cells are
// still queued must not simulate anything once the worker frees up —
// every queued task checks the sweep's context before it computes.
func TestCanceledSweepSimulatesNothing(t *testing.T) {
	svc := NewService(Config{Workers: 1})
	defer svc.Close()

	// Hold the only worker so every cell of the sweep stays queued.
	started := make(chan struct{})
	gate := make(chan struct{})
	svc.pool.Submit(func() error {
		close(started)
		<-gate
		return nil
	}, nil)
	<-started

	grid := Grid{
		Benchmarks:   []string{"ora", "compress"},
		Machines:     []string{"single", "dual"},
		Schedulers:   []string{"none"},
		Seeds:        []int64{777002}, // private key space for this test
		Instructions: 8_000,
	}
	before := experiment.TraceGenerations()
	h, err := svc.CreateSweep(context.Background(), "cancel-test", grid)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel only once cells are queued behind the held worker.
	deadline := time.Now().Add(30 * time.Second)
	for svc.pool.Stats().Queued < 2 {
		if time.Now().After(deadline) {
			t.Fatal("sweep cells never reached the pool")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := svc.CancelSweep(h.ID); !ok {
		t.Fatal("CancelSweep: sweep not found")
	}
	close(gate)

	for {
		st := svc.pool.Stats()
		if st.Queued == 0 && st.Running == 0 && h.State() != SweepRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never went idle: %+v, sweep %s", st, h.State())
		}
		time.Sleep(time.Millisecond)
	}
	if got := experiment.TraceGenerations() - before; got != 0 {
		t.Errorf("canceled sweep materialized %d traces, want 0", got)
	}
}
