package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"multicluster/internal/faultinject"
	"multicluster/internal/obs"
	"multicluster/internal/sweep"
)

// testInstructions keeps every simulated cell tiny so the two-node
// tests exercise routing, not the simulator.
const testInstructions = 2000

// testNode is one in-process cluster member: a real sweep service with
// a journal, a cluster node, and an HTTP server on a real TCP port.
type testNode struct {
	t    *testing.T
	id   string
	addr string
	dir  string
	reg  *obs.Registry
	node *Node
	svc  *sweep.Service
	srv  *http.Server
}

type nodeOpts struct {
	replicas       int
	hintMaxRecords int64
	inject         *faultinject.Plan
	wrap           func(http.Handler) http.Handler
}

// startNode boots one member. addr "" picks a fresh port; passing a
// previous node's addr (with the same dir) restarts it in place —
// journal and hint logs recover from disk.
func startNode(t *testing.T, id, addr, dir string, seeds []Member, opts nodeOpts) *testNode {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	journal, err := sweep.OpenJournal(filepath.Join(dir, "results.journal"))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	node, err := NewNode(Config{
		Self:     Member{ID: id, URL: "http://" + ln.Addr().String()},
		Seeds:    seeds,
		Replicas: opts.replicas,
		HintDir:  filepath.Join(dir, "hints"),
		// Probes are driven explicitly with Sync; the huge interval only
		// sets the probe timeout.
		Heartbeat:      time.Hour,
		FailThreshold:  1,
		HintMaxRecords: opts.hintMaxRecords,
		Metrics:        NewMetrics(reg),
		Inject:         opts.inject,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := sweep.NewService(sweep.Config{
		Workers: 4,
		Journal: journal,
		NodeID:  id,
		Remote:  node,
		Inject:  opts.inject,
	})
	node.AttachService(svc)
	handler := node.Handler(sweep.NewServer(svc))
	if opts.wrap != nil {
		handler = opts.wrap(handler)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	n := &testNode{t: t, id: id, addr: ln.Addr().String(), dir: dir, reg: reg, node: node, svc: svc, srv: srv}
	t.Cleanup(n.kill)
	return n
}

func (n *testNode) url() string { return "http://" + n.addr }

// kill stops the node abruptly: the listener closes and in-flight
// connections are cut, as a crash would.
func (n *testNode) kill() {
	n.srv.Close()
	n.svc.Close()
}

func (n *testNode) member() Member { return Member{ID: n.id, URL: n.url()} }

// specOwnedBy finds a spec whose content hash the ring assigns to owner,
// varying the seed until one lands there.
func specOwnedBy(t *testing.T, ring *Ring, owner string) sweep.JobSpec {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		spec := sweep.JobSpec{Benchmark: "compress", Seed: seed, Instructions: testInstructions}
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		hash, err := norm.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(hash) == owner {
			return spec
		}
	}
	t.Fatalf("no spec owned by %s in 1000 seeds", owner)
	return sweep.JobSpec{}
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// runSweep creates grid as a sweep resource on n over HTTP and reads its
// results stream to EOF, calling fn with each row in grid order. It
// returns the grid size the server reported.
func runSweep(t *testing.T, n *testNode, grid sweep.Grid, fn func(sweep.SweepResultRow)) int {
	t.Helper()
	body, err := json.Marshal(grid)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(n.url()+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	var created sweep.SweepView
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: status %d, decode error %v", resp.StatusCode, err)
	}
	resp, err = http.Get(n.url() + "/v1/sweeps/" + created.ID + "/results")
	if err != nil {
		t.Fatalf("GET sweep results: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET sweep results: status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var row sweep.SweepResultRow
		if err := dec.Decode(&row); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decoding sweep row: %v", err)
		}
		fn(row)
	}
	return created.Total
}

// TestTwoNodeTable2Identical is the tentpole acceptance: a two-node
// cluster serves /v1/table2 byte-identically to a single-node daemon,
// with part of the grid genuinely computed on the peer.
func TestTwoNodeTable2Identical(t *testing.T) {
	// Single-node reference.
	ref := sweep.NewService(sweep.Config{Workers: 4})
	defer ref.Close()
	refSrv := httptest.NewServer(sweep.NewServer(ref))
	defer refSrv.Close()

	const query = "/v1/table2?n=2000&seed=7&format=json"
	status, want := httpGet(t, refSrv.URL+query)
	if status != http.StatusOK {
		t.Fatalf("reference table2: %d %s", status, want)
	}

	// Two-node cluster: b seeds from a, a is told about b directly.
	a := startNode(t, "a", "", t.TempDir(), nil, nodeOpts{})
	b := startNode(t, "b", "", t.TempDir(), []Member{a.member()}, nodeOpts{})
	a.node.members.addMember(b.member())

	status, got := httpGet(t, a.url()+query)
	if status != http.StatusOK {
		t.Fatalf("cluster table2: %d %s", status, got)
	}
	if string(got) != string(want) {
		t.Errorf("two-node table2 differs from single-node:\nwant %s\ngot  %s", want, got)
	}
	if a.node.metrics.forwards.Value() == 0 {
		t.Error("no cells were forwarded to the peer — the table2 grid should split across owners")
	}
	// And the same request against the peer is also identical (replica
	// cache hits plus forwards in the other direction).
	status, got = httpGet(t, b.url()+query)
	if status != http.StatusOK || string(got) != string(want) {
		t.Errorf("table2 from node b: status %d, identical=%v", status, string(got) == string(want))
	}
}

// TestClusterKillRejoinZeroLoss is the hinted-handoff acceptance: kill a
// node mid-sweep, finish the sweep with zero lost cells (sheds to local
// compute + hint logs), then rejoin the node and watch the backlog
// drain to it — cluster_hints_pending returns to 0 and every cell the
// dead node owned lands in its cache.
func TestClusterKillRejoinZeroLoss(t *testing.T) {
	grid := sweep.Grid{
		Machines:     []string{"single"},
		Schedulers:   []string{"none"},
		Seeds:        []int64{1, 2, 3},
		Instructions: testInstructions,
	}
	specs, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	first := mustHash(t, specs[0])

	// b holds every forwarded cell but cell 0 until it is killed, so the
	// first row arrives and the kill then orphans b-owned cells
	// mid-flight, however fast the rest of the grid computes.
	killed := make(chan struct{})
	hold := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/cluster/v1/run" {
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				var spec sweep.JobSpec
				if json.Unmarshal(body, &spec) == nil {
					if hash, _ := spec.Hash(); hash != first {
						select {
						case <-killed:
						case <-r.Context().Done():
						}
						return
					}
				}
			}
			next.ServeHTTP(w, r)
		})
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	a := startNode(t, "a", "", dirA, nil, nodeOpts{})
	b := startNode(t, "b", "", dirB, []Member{a.member()}, nodeOpts{wrap: hold})
	a.node.members.addMember(b.member())
	addrB := b.addr

	ctx := context.Background()

	// Kill b after the first row: the rest of the sweep must shed its
	// b-owned cells to local compute and the hint log.
	got := 0
	total := runSweep(t, a, grid, func(row sweep.SweepResultRow) {
		if row.Error != "" {
			t.Fatalf("row %d failed: %s", row.Index, row.Error)
		}
		if row.Result == nil {
			t.Fatalf("row %d has no result", row.Index)
		}
		got++
		if got == 1 {
			b.kill()
			close(killed)
		}
	})
	if total != len(specs) {
		t.Fatalf("grid expands to %d, sweep says %d", len(specs), total)
	}
	if got != total {
		t.Fatalf("sweep delivered %d of %d rows after mid-sweep kill", got, total)
	}

	// Everything a does not own should now be spooled for b: the cells
	// held in flight when b died and every later one.
	pending := a.node.hints.PendingFor("b")
	if pending == 0 {
		t.Fatal("expected a hint backlog for the killed node")
	}
	if st := a.node.members.State("b"); st != PeerDown {
		t.Fatalf("killed peer state = %s, want down", st)
	}

	// Rejoin: a fresh process on the same address over the same data
	// directory. Its first ping tells a it is back, and a drains the
	// backlog into it synchronously.
	b2 := startNode(t, "b", addrB, dirB, []Member{a.member()}, nodeOpts{})
	b2.node.Sync(ctx)

	if n := a.node.hints.PendingFor("b"); n != 0 {
		t.Fatalf("hint backlog after rejoin = %d, want 0", n)
	}
	var metricsText strings.Builder
	if err := a.reg.WriteText(&metricsText); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metricsText.String(), "cluster_hints_pending 0") {
		t.Errorf("cluster_hints_pending did not return to 0:\n%s", metricsText.String())
	}
	if a.node.metrics.hintsReplayed.Value() != int64(pending) {
		t.Errorf("hints replayed = %d, spooled = %d", a.node.metrics.hintsReplayed.Value(), pending)
	}

	// Zero loss: every cell b owns is in b's cache — recovered from its
	// own journal or handed back through the hint log.
	owned := 0
	for _, spec := range specs {
		hash, err := spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if a.node.ring.Owner(hash) != "b" {
			continue
		}
		owned++
		res, ok := b2.svc.Cached(hash)
		if !ok {
			t.Errorf("b lost cell %s (%s seed %d) across kill+rejoin", hash[:12], spec.Benchmark, spec.Seed)
			continue
		}
		if res.Hash != hash {
			t.Errorf("cell %s stored under wrong hash %s", hash[:12], res.Hash[:12])
		}
	}
	if owned == 0 {
		t.Fatal("ring assigned b no cells — test proves nothing")
	}
}

// TestClusterTransitiveDiscovery: nodes seeded only with one peer learn
// the rest through heartbeat delta exchange.
func TestClusterTransitiveDiscovery(t *testing.T) {
	a := startNode(t, "a", "", t.TempDir(), nil, nodeOpts{})
	b := startNode(t, "b", "", t.TempDir(), []Member{a.member()}, nodeOpts{})
	c := startNode(t, "c", "", t.TempDir(), []Member{a.member()}, nodeOpts{})

	ctx := context.Background()
	// b and c introduce themselves to a; a's map then carries both, and
	// the next probes hand each the other.
	b.node.Sync(ctx)
	c.node.Sync(ctx)
	b.node.Sync(ctx)

	for _, n := range []*testNode{a, b, c} {
		members := n.node.ring.Members()
		if len(members) != 3 {
			t.Errorf("node %s sees %d members (%v), want 3", n.id, len(members), members)
		}
	}
	// All three agree on every owner.
	for seed := int64(1); seed <= 50; seed++ {
		spec := sweep.JobSpec{Benchmark: "compress", Seed: seed, Instructions: testInstructions}
		norm, _ := spec.Normalize()
		hash, _ := norm.Hash()
		oa, ob, oc := a.node.ring.Owner(hash), b.node.ring.Owner(hash), c.node.ring.Owner(hash)
		if oa != ob || ob != oc {
			t.Fatalf("owner of %s diverges: a=%s b=%s c=%s", hash[:12], oa, ob, oc)
		}
	}
}

// TestForwardFaultInjection severs the forwarding path with the
// "forward" injection site: every non-owned cell must fall back to
// local computation and still produce a correct result.
func TestForwardFaultInjection(t *testing.T) {
	plan, err := faultinject.ParsePlan("forward:error:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	a := startNode(t, "a", "", t.TempDir(), nil, nodeOpts{inject: plan})
	b := startNode(t, "b", "", t.TempDir(), []Member{a.member()}, nodeOpts{})
	a.node.members.addMember(b.member())

	spec := specOwnedBy(t, a.node.ring, "b")
	res, hit, err := a.svc.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run with severed forwarding: %v", err)
	}
	if hit {
		t.Error("first run should not be a cache hit")
	}
	if res == nil || res.Hash == "" {
		t.Fatal("no result from local fallback")
	}
	if a.node.metrics.forwards.Value() != 0 {
		t.Error("injection should have cut the forward before the network")
	}
	counts := plan.Counts()
	faults := 0
	for site, n := range counts {
		if strings.HasPrefix(site, "forward/") {
			faults += int(n)
		}
	}
	if faults == 0 {
		t.Errorf("no forward faults recorded: %v", counts)
	}
}

// TestClusterHeaderPropagationAndJobProxy checks the request-metadata
// path end to end: a forwarded run carries the submitter's request id,
// client id, and origin node, and a job id minted on one node resolves
// from any other.
func TestClusterHeaderPropagationAndJobProxy(t *testing.T) {
	var mu sync.Mutex
	forwarded := make(map[string]string)
	capture := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/cluster/v1/run" {
				mu.Lock()
				forwarded["request"] = r.Header.Get("X-Request-ID")
				forwarded["client"] = r.Header.Get("X-Client-ID")
				forwarded["origin"] = r.Header.Get("X-MC-Origin")
				mu.Unlock()
			}
			next.ServeHTTP(w, r)
		})
	}

	a := startNode(t, "a", "", t.TempDir(), nil, nodeOpts{})
	b := startNode(t, "b", "", t.TempDir(), []Member{a.member()}, nodeOpts{wrap: capture})
	a.node.members.addMember(b.member())

	spec := specOwnedBy(t, a.node.ring, "b")
	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest(http.MethodPost, a.url()+"/v1/jobs", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "req-e2e-42")
	req.Header.Set("X-Client-ID", "client-e2e")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var view sweep.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if !strings.HasPrefix(view.ID, "a-j") {
		t.Fatalf("job id %q should carry the minting node's prefix", view.ID)
	}

	// Wait for the job (and so the forward) to finish.
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, body := httpGet(t, a.url()+"/v1/jobs/"+view.ID)
		if status != http.StatusOK {
			t.Fatalf("poll: %d %s", status, body)
		}
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		if view.State == sweep.JobDone || view.State == sweep.JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", view.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if view.State != sweep.JobDone {
		t.Fatalf("job finished %s: %s", view.State, view.Error)
	}

	mu.Lock()
	got := map[string]string{"request": forwarded["request"], "client": forwarded["client"], "origin": forwarded["origin"]}
	mu.Unlock()
	want := map[string]string{"request": "req-e2e-42", "client": "client-e2e", "origin": "a"}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("forwarded %s header = %q, want %q", k, got[k], v)
		}
	}

	// The job id resolves from the peer too, via the lookup proxy.
	status, body := httpGet(t, b.url()+"/v1/jobs/"+view.ID)
	if status != http.StatusOK {
		t.Fatalf("proxied lookup: %d %s", status, body)
	}
	var proxied sweep.JobView
	if err := json.Unmarshal(body, &proxied); err != nil {
		t.Fatal(err)
	}
	if proxied.ID != view.ID || proxied.State != sweep.JobDone {
		t.Errorf("proxied view = %s/%s, want %s/done", proxied.ID, proxied.State, view.ID)
	}
	if b.node.metrics.proxied.Value() == 0 {
		t.Error("lookup should have been proxied to the minting node")
	}

	// An id no member minted stays a local 404.
	if status, _ := httpGet(t, b.url()+"/v1/jobs/zz-j999"); status != http.StatusNotFound {
		t.Errorf("unknown-node job id: %d, want 404", status)
	}
}

// TestClusterSoak pushes a larger randomized-ish load through two nodes
// with chaos on the forward path, then verifies the cluster converged:
// every cell everywhere, no lost results. Kept deterministic via the
// fault plan's fixed seed. Heavier than the rest — used by the
// soak-cluster make target and still fast enough for the default run.
func TestClusterSoak(t *testing.T) {
	plan, err := faultinject.ParsePlan("forward:error:0.3", 7)
	if err != nil {
		t.Fatal(err)
	}
	a := startNode(t, "a", "", t.TempDir(), nil, nodeOpts{inject: plan})
	b := startNode(t, "b", "", t.TempDir(), []Member{a.member()}, nodeOpts{})
	a.node.members.addMember(b.member())

	grid := sweep.Grid{
		Machines:     []string{"single", "dual"},
		Schedulers:   []string{"none", "local"},
		Seeds:        []int64{1, 2},
		Instructions: testInstructions,
	}
	specs, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seen := 0
	total := runSweep(t, a, grid, func(row sweep.SweepResultRow) {
		if row.Error != "" {
			t.Fatalf("row %d: %s", row.Index, row.Error)
		}
		seen++
	})
	if seen != total || total != len(specs) {
		t.Fatalf("sweep under chaos: %d rows of %d (%d specs)", seen, total, len(specs))
	}
	// Drain any hints produced by chaos-induced local fallbacks, then
	// check convergence: every spec resolvable from both nodes.
	a.node.Sync(ctx)
	b.node.Sync(ctx)
	if n := a.node.hints.Pending(); n != 0 {
		t.Fatalf("hints still pending after sync: %d", n)
	}
	for _, spec := range specs {
		hash, _ := spec.Hash()
		owner := a.node.ring.Owner(hash)
		var holder *testNode
		if owner == "a" {
			holder = a
		} else {
			holder = b
		}
		if _, ok := holder.svc.Cached(hash); !ok {
			t.Errorf("owner %s missing cell %s (%s)", owner, hash[:12], spec.Benchmark)
		}
	}
}
