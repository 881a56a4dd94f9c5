package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"multicluster/internal/sweep"
)

// Forwarding headers. Origin names the node a request was forwarded
// from (one hop only — a request carrying it is always served locally,
// so routing can never loop); Deadline carries the forwarder's context
// deadline as unix microseconds so the owner enforces the same budget.
const (
	headerOrigin   = "X-MC-Origin"
	headerDeadline = "X-MC-Deadline"
)

// maxForwardBody caps forwarded specs and pushed results. Results carry
// a full stats snapshot but stay well under a megabyte.
const maxForwardBody = 4 << 20

// Handler wraps the node's local HTTP surface (the sweep server) with
// the cluster layer: the /cluster/v1/* peer endpoints, and cross-node
// routing of job lookups whose node-prefixed ids name another owner.
// Everything else — submissions, sweeps, table2 — is served by the
// local handler, whose computations route through the ring internally.
func (n *Node) Handler(local http.Handler) http.Handler {
	r := &router{node: n, local: local, mux: http.NewServeMux()}
	r.mux.HandleFunc("GET /cluster/v1/ping", r.handlePing)
	r.mux.HandleFunc("POST /cluster/v1/run", r.handleRun)
	r.mux.HandleFunc("POST /cluster/v1/result", r.handleResult)
	r.mux.HandleFunc("GET /cluster/v1/result/{hash}", r.handleResultGet)
	r.mux.HandleFunc("GET /cluster/v1/digest", r.handleDigest)
	r.mux.HandleFunc("POST /cluster/v1/leave", r.handleLeave)
	r.mux.HandleFunc("POST /cluster/v1/member", r.handleMember)
	r.mux.HandleFunc("GET /cluster/v1/status", r.handleStatus)
	r.mux.HandleFunc("GET /readyz", r.handleReadyz)
	r.mux.HandleFunc("GET /v1/jobs/{id}", r.handleJob)
	r.mux.HandleFunc("DELETE /v1/jobs/{id}", r.handleJob)
	r.mux.HandleFunc("GET /v1/sweeps/{id}", r.handleSweepByID)
	r.mux.HandleFunc("GET /v1/sweeps/{id}/results", r.handleSweepByID)
	r.mux.HandleFunc("DELETE /v1/sweeps/{id}", r.handleSweepByID)
	r.mux.Handle("/", local)
	return r
}

type router struct {
	node  *Node
	local http.Handler
	mux   *http.ServeMux
}

func (r *router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mux.ServeHTTP(w, req)
}

// writeError emits the same structured error envelope the sweep server
// uses, so every error body in the system — local handler, peer
// endpoint, or proxy hop — has one shape.
func (r *router) writeError(w http.ResponseWriter, status int, code string, err error) {
	sweep.WriteAPIError(w, status, code, err.Error())
}

// handlePing answers a peer heartbeat: identity, ring version, and the
// caller's partition-map catch-up. Receiving a ping is also direct
// evidence the caller is alive, so it marks the sender up (prompting
// hint replay on a rejoin without waiting for our next probe).
func (r *router) handlePing(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	pr := r.node.members.handlePing(q.Get("from"), q.Get("url"), parseSince(q.Get("ring")))
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(pr)
}

// handleRun executes a forwarded spec locally — never re-forwarding —
// under the forwarder's deadline, with its request id and client id
// threaded into the execution context.
func (r *router) handleRun(w http.ResponseWriter, req *http.Request) {
	if r.node.svc == nil {
		r.writeError(w, http.StatusServiceUnavailable, sweep.CodeUnavailable, errors.New("cluster: node has no service attached"))
		return
	}
	var spec sweep.JobSpec
	req.Body = http.MaxBytesReader(w, req.Body, maxForwardBody)
	if err := json.NewDecoder(req.Body).Decode(&spec); err != nil {
		r.writeError(w, http.StatusBadRequest, sweep.CodeInvalidRequest, fmt.Errorf("decoding forwarded spec: %w", err))
		return
	}
	ctx := req.Context()
	if v := req.Header.Get(headerDeadline); v != "" {
		if micros, err := strconv.ParseInt(v, 10, 64); err == nil {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, time.UnixMicro(micros))
			defer cancel()
		}
	}
	if id := req.Header.Get("X-Request-ID"); id != "" {
		ctx = sweep.WithRequestID(ctx, id)
	}
	if client := req.Header.Get("X-Client-ID"); client != "" {
		ctx = sweep.WithClientID(ctx, client)
	}
	res, _, err := r.node.svc.RunLocal(ctx, spec)
	if err != nil {
		status, code := http.StatusInternalServerError, sweep.CodeInternal
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status, code = http.StatusGatewayTimeout, sweep.CodeTimeout
		}
		r.writeError(w, status, code, err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(res)
}

// handleResult accepts a result from a peer — replica fan-out or a
// replayed hint — and installs it in the local cache and journal.
// Idempotent: a duplicate store is a no-op, which is what makes
// at-least-once hint replay safe.
func (r *router) handleResult(w http.ResponseWriter, req *http.Request) {
	if r.node.svc == nil {
		r.writeError(w, http.StatusServiceUnavailable, sweep.CodeUnavailable, errors.New("cluster: node has no service attached"))
		return
	}
	var res sweep.Result
	req.Body = http.MaxBytesReader(w, req.Body, maxForwardBody)
	if err := json.NewDecoder(req.Body).Decode(&res); err != nil {
		r.writeError(w, http.StatusBadRequest, sweep.CodeInvalidRequest, fmt.Errorf("decoding pushed result: %w", err))
		return
	}
	if err := r.node.svc.StoreResult(&res); err != nil {
		r.writeError(w, http.StatusBadRequest, sweep.CodeInvalidSpec, err)
		return
	}
	r.node.metrics.storedResults.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// handleResultGet serves one cached result to a peer — the transfer
// half of anti-entropy's pull leg and read-repair's verification probe.
func (r *router) handleResultGet(w http.ResponseWriter, req *http.Request) {
	if r.node.svc == nil {
		r.writeError(w, http.StatusServiceUnavailable, sweep.CodeUnavailable, errors.New("cluster: node has no service attached"))
		return
	}
	hash := req.PathValue("hash")
	res, ok := r.node.svc.Cached(hash)
	if !ok {
		r.writeError(w, http.StatusNotFound, sweep.CodeNotFound, fmt.Errorf("cluster: no cached result for %s", hash))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(res)
}

// handleDigest serves the anti-entropy digest: of everything this node
// holds, the per-range summary of what the `for` node should hold, with
// full hash lists for any buckets named in `list`.
func (r *router) handleDigest(w http.ResponseWriter, req *http.Request) {
	if r.node.svc == nil {
		r.writeError(w, http.StatusServiceUnavailable, sweep.CodeUnavailable, errors.New("cluster: node has no service attached"))
		return
	}
	q := req.URL.Query()
	forID := q.Get("for")
	if forID == "" {
		r.writeError(w, http.StatusBadRequest, sweep.CodeInvalidRequest, errors.New("cluster: digest needs ?for=<node id>"))
		return
	}
	dv := r.node.digestFor(forID, parseBucketList(q.Get("list")))
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(dv)
}

// handleLeave runs a graceful decommission: the operator's entry point
// for planned removal. Returns the drain report; a 409 with the report
// means some results could not be delivered and the node stayed in the
// ring (leaving), ready for a retry.
func (r *router) handleLeave(w http.ResponseWriter, req *http.Request) {
	rep, err := r.node.Decommission(req.Context())
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err != nil {
		w.WriteHeader(http.StatusConflict)
	}
	json.NewEncoder(w).Encode(rep)
}

// handleMember applies a planned membership event announced by a peer.
func (r *router) handleMember(w http.ResponseWriter, req *http.Request) {
	var ev memberEvent
	req.Body = http.MaxBytesReader(w, req.Body, 4096)
	if err := json.NewDecoder(req.Body).Decode(&ev); err != nil {
		r.writeError(w, http.StatusBadRequest, sweep.CodeInvalidRequest, fmt.Errorf("decoding member event: %w", err))
		return
	}
	if ev.ID == "" {
		r.writeError(w, http.StatusBadRequest, sweep.CodeInvalidRequest, errors.New("cluster: member event needs an id"))
		return
	}
	switch ev.Event {
	case "leaving":
		// Only our own decommission marks us leaving; see integrate.
		if ev.ID != r.node.self.ID {
			r.node.ring.SetLeaving(ev.ID)
		}
	case "left":
		r.node.members.removeMember(ev.ID)
	default:
		r.writeError(w, http.StatusBadRequest, sweep.CodeInvalidRequest, fmt.Errorf("cluster: unknown member event %q", ev.Event))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleReadyz layers cluster health onto the local readiness probe: a
// node that is mid-decommission or cut off from a majority of its peers
// answers 503 so load balancers stop routing to it, even though its
// local service would admit work.
func (r *router) handleReadyz(w http.ResponseWriter, req *http.Request) {
	if r.node.Leaving() {
		http.Error(w, "leaving cluster", http.StatusServiceUnavailable)
		return
	}
	if r.node.members.DownMajority() {
		http.Error(w, "degraded: majority of peers down", http.StatusServiceUnavailable)
		return
	}
	r.local.ServeHTTP(w, req)
}

// statusView is the cluster introspection document.
type statusView struct {
	Node         string           `json:"node"`
	Health       string           `json:"health"` // ok | degraded | leaving
	Leaving      bool             `json:"leaving,omitempty"`
	RingVersion  uint64           `json:"ring_version"`
	Members      []Member         `json:"members"`
	Peers        []PeerView       `json:"peers"`
	HintsPending map[string]int64 `json:"hints_pending,omitempty"`
}

func (r *router) handleStatus(w http.ResponseWriter, req *http.Request) {
	n := r.node
	sv := statusView{
		Node:        n.self.ID,
		Health:      "ok",
		Leaving:     n.Leaving(),
		RingVersion: n.ring.Version(),
		Members:     n.ring.Members(),
		Peers:       n.members.Peers(),
	}
	if n.members.DownMajority() {
		sv.Health = "degraded"
	}
	if n.Leaving() {
		sv.Health = "leaving"
	}
	for _, peer := range n.hints.Peers() {
		if sv.HintsPending == nil {
			sv.HintsPending = make(map[string]int64)
		}
		sv.HintsPending[peer] = n.hints.PendingFor(peer)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(sv)
}

// splitJobID extracts the owning node from a node-prefixed job id
// ("n2-j17" → "n2"). ok is false for unprefixed (single-node) ids.
func splitJobID(id string) (node string, ok bool) { return splitResourceID(id, "-j") }

// splitSweepID is splitJobID for sweep ids ("n2-s4" → "n2").
func splitSweepID(id string) (node string, ok bool) { return splitResourceID(id, "-s") }

// splitResourceID extracts the node prefix ahead of sep+digits.
func splitResourceID(id, sep string) (node string, ok bool) {
	i := strings.LastIndex(id, sep)
	if i <= 0 {
		return "", false
	}
	seq := id[i+len(sep):]
	if seq == "" {
		return "", false
	}
	for _, c := range seq {
		if c < '0' || c > '9' {
			return "", false
		}
	}
	return id[:i], true
}

// handleJob routes a job lookup or cancel by its node-prefixed id: ids
// minted by another node are proxied to it (one hop), everything else
// is served locally.
func (r *router) handleJob(w http.ResponseWriter, req *http.Request) {
	r.routeByID(w, req, splitJobID)
}

// handleSweepByID routes sweep progress/results/cancel the same way: a
// sweep lives on (and resumes on) the node that minted its id, so every
// node can answer for any sweep in the cluster with one proxy hop.
func (r *router) handleSweepByID(w http.ResponseWriter, req *http.Request) {
	r.routeByID(w, req, splitSweepID)
}

// routeByID serves the request locally unless its node-prefixed resource
// id names a live peer, in which case the request proxies to it.
func (r *router) routeByID(w http.ResponseWriter, req *http.Request, split func(string) (string, bool)) {
	id := req.PathValue("id")
	node, ok := split(id)
	if !ok || node == r.node.self.ID || req.Header.Get(headerOrigin) != "" {
		r.local.ServeHTTP(w, req)
		return
	}
	base, known := r.node.ring.URL(node)
	if !known || base == "" {
		// Not a member we know — let the local registry answer (404).
		r.local.ServeHTTP(w, req)
		return
	}
	if r.node.members.State(node) != PeerUp {
		w.Header().Set("Retry-After", "1")
		r.writeError(w, http.StatusServiceUnavailable, sweep.CodeUnavailable, fmt.Errorf("cluster: owning node %s is down", node))
		return
	}
	r.proxyJob(w, req, node, base)
}

// proxyJob forwards one resource request to the owning node verbatim,
// propagating the request id and client identity and marking the hop.
// Query parameters ride along so sweep result cursors survive the proxy,
// and the streamed body is flushed as it arrives so a long-running
// result stream reaches the client incrementally.
func (r *router) proxyJob(w http.ResponseWriter, req *http.Request, node, base string) {
	out, err := http.NewRequestWithContext(req.Context(), req.Method, base+req.URL.RequestURI(), nil)
	if err != nil {
		r.writeError(w, http.StatusBadGateway, sweep.CodeBadGateway, err)
		return
	}
	out.Header.Set(headerOrigin, r.node.self.ID)
	if id := req.Header.Get("X-Request-ID"); id != "" {
		out.Header.Set("X-Request-ID", id)
	}
	if client := req.Header.Get("X-Client-ID"); client != "" {
		out.Header.Set("X-Client-ID", client)
	}
	r.node.metrics.proxied.Inc()
	resp, err := r.node.client.Do(out)
	if err != nil {
		r.node.members.ReportFailure(node)
		r.writeError(w, http.StatusBadGateway, sweep.CodeBadGateway, fmt.Errorf("cluster: proxying to %s: %w", node, err))
		return
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", "Location", "X-Sweep-Cursor"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
