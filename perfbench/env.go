package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"multicluster/internal/obs"
	"multicluster/internal/sweep"
)

// fingerprint identifies the host a result was measured on. Results with
// different fingerprints are not comparable.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		fp.Kernel = string(b)
	}
	return fp
}

// diff names the first field two fingerprints disagree on, or "".
func (a fingerprint) diff(b fingerprint) string {
	switch {
	case a.CPU != b.CPU:
		return fmt.Sprintf("cpu %q vs %q", a.CPU, b.CPU)
	case a.NProc != b.NProc:
		return fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.Go != b.Go:
		return fmt.Sprintf("go %s vs %s", a.Go, b.Go)
	case a.Kernel != b.Kernel:
		return fmt.Sprintf("kernel %s vs %s", a.Kernel, b.Kernel)
	}
	return ""
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// env is one set-up instance of the system under test: a service with
// journals in a scratch data dir, its HTTP front end on a loopback
// listener, and the benchmark's client.
type env struct {
	dir     string
	svc     *sweep.Service
	journal *sweep.Journal
	sweeps  *sweep.SweepJournal
	httpSrv *http.Server
	serving sync.WaitGroup
	base    string
	client  *http.Client
	tr      *tracer // nil when untraced
}

// workers is the server's pool size and the bound on client connections.
func workers() int { return runtime.NumCPU() }

func newEnv(root string, tr *tracer) (*env, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "data-")
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir, tr: tr}
	if e.journal, err = sweep.OpenJournal(filepath.Join(dir, "results.journal")); err != nil {
		e.close()
		return nil, err
	}
	if e.sweeps, err = sweep.OpenSweepJournal(filepath.Join(dir, "sweeps.journal"), 0); err != nil {
		e.close()
		return nil, err
	}
	e.svc = sweep.NewService(sweep.Config{
		Workers:      workers(),
		Journal:      e.journal,
		SweepJournal: e.sweeps,
		Metrics:      sweep.NewMetrics(obs.NewRegistry()),
	})
	var h http.Handler = sweep.NewServer(e.svc)
	if tr != nil {
		h = tr.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.httpSrv = &http.Server{Handler: h}
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		_ = e.httpSrv.Serve(ln) // returns ErrServerClosed on close
	}()
	e.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     workers(),
			MaxIdleConnsPerHost: workers(),
			DisableCompression:  true,
		},
	}
	return e, nil
}

// close stops the server, the service and the journals, waits for them,
// and removes the data dir.
func (e *env) close() {
	if e.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.httpSrv.Shutdown(ctx) // in-flight requests are the benchmark's own
		cancel()
		e.serving.Wait()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.svc != nil {
		e.svc.Close()
	}
	if e.journal != nil {
		e.journal.Close()
	}
	if e.sweeps != nil {
		e.sweeps.Close()
	}
	os.RemoveAll(e.dir)
}

// errStatus is a non-2xx response.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// do sends one request and returns the response body. Every call is one
// client span when tracing, tagged with op.
func (e *env) do(op int64, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sp := e.tr.begin(op, -1, "client."+method)
	if sp != nil {
		req.Header.Set(spanHeader, fmt.Sprint(sp.ID))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		e.tr.end(sp)
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return out, &errStatus{code: resp.StatusCode, body: strings.TrimSpace(string(out))}
	}
	return out, nil
}

// jobView is the part of a job view the benchmark reads; Result and Spec
// stay raw so they can be compared byte for byte.
type jobView struct {
	ID       string          `json:"id"`
	Hash     string          `json:"hash"`
	State    string          `json:"state"`
	CacheHit bool            `json:"cache_hit"`
	Error    string          `json:"error"`
	Spec     json.RawMessage `json:"spec"`
	Result   json.RawMessage `json:"result"`
	Created  time.Time       `json:"created"`
	Started  time.Time       `json:"started"`
	Finished time.Time       `json:"finished"`
}

func (v jobView) terminal() bool {
	return v.State == "done" || v.State == "failed" || v.State == "canceled"
}

// submit POSTs a job spec.
func (e *env) submit(op int64, spec sweep.JobSpec) (jobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobView{}, err
	}
	out, err := e.do(op, "POST", "/v1/jobs", body)
	if err != nil {
		return jobView{}, err
	}
	var v jobView
	err = json.Unmarshal(out, &v)
	return v, err
}

// getJob reads a job view, returning the raw body too.
func (e *env) getJob(op int64, id string) (jobView, []byte, error) {
	out, err := e.do(op, "GET", "/v1/jobs/"+id, nil)
	if err != nil {
		return jobView{}, out, err
	}
	var v jobView
	err = json.Unmarshal(out, &v)
	return v, out, err
}

// await polls a job every interval until it is terminal, and fails unless
// it ended done.
func (e *env) await(op int64, id string, interval time.Duration) (jobView, []byte, error) {
	for {
		v, raw, err := e.getJob(op, id)
		if err != nil {
			return v, raw, err
		}
		if v.terminal() {
			if v.State != "done" {
				return v, raw, fmt.Errorf("job %s ended %s: %s", id, v.State, v.Error)
			}
			return v, raw, nil
		}
		time.Sleep(interval)
	}
}

// run submits a spec and waits for its result.
func (e *env) run(op int64, spec sweep.JobSpec, interval time.Duration) (jobView, error) {
	v, err := e.submit(op, spec)
	if err != nil {
		return v, err
	}
	v, _, err = e.await(op, v.ID, interval)
	return v, err
}

// sweepRow is one NDJSON row of a sweep's results.
type sweepRow struct {
	Index  int             `json:"index"`
	Total  int             `json:"total"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// createSweep POSTs a grid and returns the sweep id.
func (e *env) createSweep(op int64, g sweep.Grid) (string, error) {
	body, err := json.Marshal(g)
	if err != nil {
		return "", err
	}
	out, err := e.do(op, "POST", "/v1/sweeps", body)
	if err != nil {
		return "", err
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out, &v); err != nil {
		return "", err
	}
	if v.ID == "" {
		return "", errors.New("sweep created without an id")
	}
	return v.ID, nil
}

// streamSweep reads a sweep's results from cursor 0 to the end, calling
// row as each line arrives, and returns the whole body.
func (e *env) streamSweep(op int64, id string, row func(i int, line []byte)) ([]byte, error) {
	req, err := http.NewRequest("GET", e.base+"/v1/sweeps/"+id+"/results", nil)
	if err != nil {
		return nil, err
	}
	sp := e.tr.begin(op, -1, "client.GET")
	if sp != nil {
		req.Header.Set(spanHeader, fmt.Sprint(sp.ID))
	}
	defer e.tr.end(sp)
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		return nil, &errStatus{code: resp.StatusCode, body: strings.TrimSpace(string(out))}
	}
	var all []byte
	br := bufio.NewReader(resp.Body)
	for i := 0; ; i++ {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			all = append(all, line...)
			if row != nil {
				row(i, line)
			}
		}
		if err == io.EOF {
			return all, nil
		}
		if err != nil {
			return all, err
		}
	}
}
