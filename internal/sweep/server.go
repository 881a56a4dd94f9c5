package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"

	"multicluster/internal/experiment"
)

// maxBodyBytes caps request bodies on the submission endpoints: a JobSpec
// or Grid is a few hundred bytes, so 1 MiB is generous and a giant or
// malicious body is refused with 413 instead of ballooning memory.
const maxBodyBytes = 1 << 20

// Server exposes a Service over HTTP/JSON. It is an http.Handler so the
// daemon and httptest both mount it directly.
//
//	POST /v1/jobs               submit one job       -> 202 JobView (429 when shedding)
//	GET  /v1/jobs               list jobs, paginated -> 200 JobPage (?limit=&after=)
//	GET  /v1/jobs/{id}          poll one job         -> 200 JobView
//	DELETE /v1/jobs/{id}        cancel one job       -> 200 JobView
//	POST /v1/sweeps             create a sweep       -> 202 SweepView + Location
//	GET  /v1/sweeps             list sweeps          -> 200 SweepPage
//	GET  /v1/sweeps/{id}        sweep progress       -> 200 SweepView
//	GET  /v1/sweeps/{id}/results resumable results   -> 200 NDJSON of SweepResultRow
//	                                                    (?cursor=N resumes, ?limit=M paginates)
//	DELETE /v1/sweeps/{id}      cancel a sweep       -> 200 SweepView
//	GET  /v1/table2             the paper's Table 2  -> 200 rows (json|csv|text)
//	GET  /v1/stats              service counters     -> 200 Stats
//	GET  /metrics               Prometheus text      -> 200 (when Config.Metrics is set)
//	GET  /healthz               liveness             -> 200 ok
//	GET  /readyz                readiness            -> 200 ok | 503 overloaded/draining
//
// Errors are a structured envelope {"error":{"code","message"}} with
// stable machine-readable codes (see the Code* constants).
//
// Submissions may carry an X-Client-ID header; per-client in-flight caps
// and the pool's fair-queueing scheduling key off that identity, falling
// back to the remote host.
type Server struct {
	svc *Service
	mux *http.ServeMux
}

// NewServer builds the HTTP front end of a service.
func NewServer(svc *Service) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleCreateSweep)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleListSweeps)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGetSweep)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleSweepResults)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancelSweep)
	s.mux.HandleFunc("GET /v1/table2", s.handleTable2)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	if m := svc.metrics; m != nil {
		s.mux.Handle("GET /metrics", m.Handler())
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Stable machine-readable error codes carried in the error envelope.
// Clients branch on the code; the message is for humans and may change.
const (
	CodeInvalidRequest = "invalid_request" // malformed JSON, bad query params
	CodeInvalidSpec    = "invalid_spec"    // a spec or grid that fails validation
	CodeNotFound       = "not_found"       // unknown (or evicted) resource id
	CodeShed           = "shed"            // admission control refused the work
	CodeDraining       = "draining"        // graceful shutdown in progress
	CodeTooLarge       = "too_large"       // request body over the size cap
	CodeInternal       = "internal"        // unexpected server-side failure
	CodeClientClosed   = "client_closed"   // the client went away mid-request
	CodeUnavailable    = "unavailable"     // a dependency (peer node) is down
	CodeBadGateway     = "bad_gateway"     // proxying to a peer node failed
	CodeTimeout        = "timeout"         // the work's deadline expired
)

// APIError is the machine-readable half of the error envelope every
// /v1/* handler returns: {"error":{"code":"...","message":"..."}}.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorEnvelope struct {
	Error APIError `json:"error"`
}

// WriteAPIError writes the structured error envelope. It is exported so
// other layers fronting the same API (the cluster router's proxy paths)
// speak the identical error shape.
func WriteAPIError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, errorEnvelope{Error: APIError{Code: code, Message: message}})
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	WriteAPIError(w, status, code, err.Error())
}

// decodeBody decodes a JSON request body under the size cap, translating
// an oversized body into 413 and malformed JSON into 400. It reports
// whether decoding succeeded; on failure the response has been written.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// clientID identifies the submitting client for per-client admission
// caps: the X-Client-ID header when present, else the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// reqCtx decorates the request context with the request's id and client
// identity, so a computation forwarded to another cluster node carries
// them (into its access log and admission accounting).
func reqCtx(r *http.Request) context.Context {
	ctx := WithClientID(r.Context(), clientID(r))
	if id := r.Header.Get("X-Request-ID"); id != "" {
		ctx = WithRequestID(ctx, id)
	}
	return ctx
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	job, err := s.svc.SubmitCtx(reqCtx(r), clientID(r), spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, job.View())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, CodeDraining, err)
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClientBusy):
		// Load shedding: tell the client when to come back rather than
		// letting the queue (and memory) grow without bound.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, CodeShed, err)
	default:
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err)
	}
}

// JobPage is one page of the job listing, with the cursor for the next.
type JobPage struct {
	Jobs []JobView `json:"jobs"`
	// Next, when set, is the `after` cursor that continues the listing;
	// absent on the final page.
	Next string `json:"next,omitempty"`
}

// parseLimit parses a ?limit= query value; ok is false (and the error
// response written) when the value is present but not a positive integer.
func parseLimit(w http.ResponseWriter, v string) (int, bool) {
	if v == "" {
		return 0, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("bad limit %q: want a positive integer", v))
		return 0, false
	}
	return n, true
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit, ok := parseLimit(w, q.Get("limit"))
	if !ok {
		return
	}
	jobs, next := s.svc.JobsPage(q.Get("after"), limit)
	writeJSON(w, http.StatusOK, JobPage{Jobs: jobs, Next: next})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.svc.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.svc.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.svc.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "overloaded or draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleCreateSweep creates a first-class sweep resource: 202 with the
// sweep's id (also in Location) for the caller to poll and stream from.
func (s *Server) handleCreateSweep(w http.ResponseWriter, r *http.Request) {
	var grid Grid
	if !decodeBody(w, r, &grid) {
		return
	}
	h, err := s.svc.CreateSweep(reqCtx(r), clientID(r), grid)
	switch {
	case err == nil:
		w.Header().Set("Location", "/v1/sweeps/"+h.ID)
		writeJSON(w, http.StatusAccepted, h.View())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, CodeDraining, err)
	default:
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err)
	}
}

// SweepPage is the sweep listing (bounded by the retention policy, so no
// cursor is needed).
type SweepPage struct {
	Sweeps []SweepView `json:"sweeps"`
}

func (s *Server) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, SweepPage{Sweeps: s.svc.Sweeps()})
}

func (s *Server) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	h, ok := s.svc.SweepByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, h.View())
}

func (s *Server) handleCancelSweep(w http.ResponseWriter, r *http.Request) {
	h, ok := s.svc.CancelSweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, h.View())
}

// handleSweepResults streams a sweep's rows as NDJSON in grid order —
// row N is always cell N, no matter which run of the server computed it
// or in what order cells finished. That determinism is what makes the
// cursor meaningful: after reading N rows a client resumes at ?cursor=N
// (on this connection, a later one, or a restarted server) and the
// concatenation is byte-identical to an uninterrupted read. ?limit=M
// turns the same mechanism into pagination. The stream waits for cells
// that are still computing; it ends early only when the sweep can no
// longer produce the next row (canceled, or the server is draining —
// resume after restart in the latter case).
func (s *Server) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	h, ok := s.svc.SweepByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	q := r.URL.Query()
	cursor := 0
	if v := q.Get("cursor"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("bad cursor %q: want a non-negative integer", v))
			return
		}
		if n > h.Total() {
			// cursor == Total is a valid resume position (an empty tail);
			// anything past it can never have been handed out by this sweep
			// and indicates a client bug, not an empty page.
			writeError(w, http.StatusBadRequest, CodeInvalidRequest,
				fmt.Errorf("cursor %d beyond grid size %d", n, h.Total()))
			return
		}
		cursor = n
	}
	limit, ok := parseLimit(w, q.Get("limit"))
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Cursor", strconv.Itoa(cursor))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := 0
	for i := cursor; i < h.Total(); i++ {
		if limit > 0 && sent >= limit {
			return
		}
		for {
			// Grab the notification channel before checking the row: a cell
			// completing between the check and the wait still wakes us.
			ch := h.waitCh()
			if row, ok := h.Row(i); ok {
				if err := enc.Encode(row); err != nil {
					return
				}
				sent++
				if flusher != nil {
					flusher.Flush()
				}
				break
			}
			if h.terminal() {
				// No more rows are coming (canceled sweep, or a draining
				// server that will resume this sweep after restart); end the
				// stream at the last deliverable row.
				return
			}
			select {
			case <-ch:
			case <-r.Context().Done():
				return
			}
		}
	}
}

// statusClientClosedRequest is nginx's de-facto code for "the client
// went away before we could answer". The response never reaches the
// client; the code exists so logs and metrics don't misfile abandoned
// requests as server errors.
const statusClientClosedRequest = 499

func (s *Server) handleTable2(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	// Validate the output format before anything else: an unknown format
	// must 400 immediately, not after burning the whole multi-benchmark
	// computation (and after the Content-Type has already been set).
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	switch format {
	case "json", "csv", "text":
	default:
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("unknown format %q (json, csv, text)", format))
		return
	}
	var p Table2Params
	var err error
	if v := q.Get("n"); v != "" {
		if p.Instructions, err = strconv.ParseInt(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("bad n: %w", err))
			return
		}
	}
	if v := q.Get("seed"); v != "" {
		if p.Seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("bad seed: %w", err))
			return
		}
	}
	if v := q.Get("window"); v != "" {
		if p.Window, err = strconv.Atoi(v); err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("bad window: %w", err))
			return
		}
	}
	if v := q.Get("width"); v != "" {
		switch v {
		case "4":
			p.FourWay = true
		case "8":
		default:
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("bad width %q (4 or 8)", v))
			return
		}
	}
	rows, err := s.svc.Table2(reqCtx(r), p)
	if err != nil {
		// A client that disconnects (or times out) mid-computation
		// surfaces as context cancellation from the request context; that
		// is a client-side termination, not a server error, and must not
		// pollute the 5xx metrics.
		if r.Context().Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			s.svc.metrics.observeClientCanceled()
			writeError(w, statusClientClosedRequest, CodeClientClosed, err)
			return
		}
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	switch format {
	case "json":
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	// The format was validated up front, so the only failures left are
	// mid-stream write errors; the status line is already committed.
	experiment.WriteRows(w, rows, format)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Stats())
}
