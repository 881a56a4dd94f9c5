package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"multicluster/internal/sweep"
)

// specsOwnedBy collects n distinct specs whose content hash the ring
// assigns to owner.
func specsOwnedBy(t *testing.T, ring *Ring, owner string, n int) []sweep.JobSpec {
	t.Helper()
	var specs []sweep.JobSpec
	for seed := int64(1); seed < 2000 && len(specs) < n; seed++ {
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
			specs = append(specs, spec)
		}
	}
	if len(specs) < n {
		t.Fatalf("found only %d of %d specs owned by %s", len(specs), n, owner)
	}
	return specs
}

func mustHash(t *testing.T, spec sweep.JobSpec) string {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := norm.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return hash
}

// TestDecommissionMidSweepZeroLoss is the planned-rebalancing
// acceptance: decommission a node in the middle of a sweep and lose
// nothing — every cell lands in the survivor's cache, the departed node
// is out of both rings, and /v1/table2 stays byte-identical to a
// single-node reference.
func TestDecommissionMidSweepZeroLoss(t *testing.T) {
	// Single-node reference output.
	ref := sweep.NewService(sweep.Config{Workers: 4})
	defer ref.Close()
	refSrv := httptest.NewServer(sweep.NewServer(ref))
	defer refSrv.Close()
	const query = "/v1/table2?n=2000&seed=7&format=json"
	status, want := httpGet(t, refSrv.URL+query)
	if status != http.StatusOK {
		t.Fatalf("reference table2: %d %s", status, want)
	}

	a := startNode(t, "a", "", t.TempDir(), nil, nodeOpts{})
	b := startNode(t, "b", "", t.TempDir(), []Member{a.member()}, nodeOpts{})
	a.node.members.addMember(b.member())

	ctx := context.Background()

	// Give b something it alone holds, so the drain provably streams.
	warm := specOwnedBy(t, a.node.ring, "b")
	if _, _, err := a.svc.Run(ctx, warm); err != nil {
		t.Fatal(err)
	}

	grid := sweep.Grid{
		Machines:     []string{"single", "dual"},
		Schedulers:   []string{"none", "local"},
		Seeds:        []int64{1, 2, 3},
		Instructions: testInstructions,
	}
	specs, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Decommission b after the first row, while the sweep is mid-flight.
	var rep DecommissionReport
	got := 0
	total := runSweep(t, a, grid, func(row sweep.SweepResultRow) {
		if row.Error != "" {
			t.Fatalf("row %d failed: %s", row.Index, row.Error)
		}
		got++
		if got == 1 {
			resp, err := http.Post(b.url()+"/cluster/v1/leave", "application/json", nil)
			if err != nil {
				t.Fatalf("leave: %v", err)
			}
			if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("leave: status %d, report %+v", resp.StatusCode, rep)
			}
		}
	})
	if got != total {
		t.Fatalf("sweep delivered %d of %d rows across a decommission", got, total)
	}

	if !rep.Removed || rep.Failed != 0 {
		t.Fatalf("decommission report %+v: want removed, zero failures", rep)
	}
	if rep.Streamed == 0 {
		t.Error("decommission streamed nothing despite b holding a result")
	}
	if b.node.metrics.rebalanceStreamed.Value() != int64(rep.Streamed) {
		t.Errorf("cluster_rebalance_streamed_total = %d, report says %d",
			b.node.metrics.rebalanceStreamed.Value(), rep.Streamed)
	}

	// b is gone from its own ring and from a's.
	if ms := b.node.ring.Members(); len(ms) != 1 || ms[0].ID != "a" {
		t.Errorf("b's ring after leave: %v, want just a", ms)
	}
	if ms := a.node.ring.Members(); len(ms) != 1 || ms[0].ID != "a" {
		t.Errorf("a's ring after b left: %v, want just a", ms)
	}

	// The departed node reports leaving through readiness and status.
	if status, body := httpGet(t, b.url()+"/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("GET /readyz on a decommissioned node = %d %s, want 503", status, body)
	}
	var sv statusView
	if _, body := httpGet(t, b.url()+"/cluster/v1/status"); true {
		if err := json.Unmarshal(body, &sv); err != nil {
			t.Fatal(err)
		}
	}
	if sv.Health != "leaving" || !sv.Leaving {
		t.Errorf("decommissioned status = %+v, want health=leaving", sv)
	}

	// Zero loss: every cell of the sweep (and the warm-up cell) is in
	// a's cache — computed, forwarded-and-seeded, or streamed over.
	for _, spec := range append(specs, warm) {
		hash := mustHash(t, spec)
		if _, ok := a.svc.Cached(hash); !ok {
			t.Errorf("survivor lost cell %s (%s seed %d)", hash[:12], spec.Benchmark, spec.Seed)
		}
	}

	// And the user-visible artifact is unchanged.
	status, gotBody := httpGet(t, a.url()+query)
	if status != http.StatusOK {
		t.Fatalf("table2 after decommission: %d", status)
	}
	if !bytes.Equal(gotBody, want) {
		t.Errorf("table2 after decommission differs from single-node reference:\nwant %s\ngot  %s", want, gotBody)
	}
}

// TestAntiEntropyHealsPartition is the anti-entropy acceptance: hints
// are deliberately bounded so a dead peer's backlog truncates, and
// after the peer returns the digest exchange — not the (lossy) hint
// replay — restores every missing result. Per-range digests end equal
// and cluster_hints_pending ends 0.
func TestAntiEntropyHealsPartition(t *testing.T) {
	dirB := t.TempDir()
	a := startNode(t, "a", "", t.TempDir(), nil, nodeOpts{hintMaxRecords: 2})
	b := startNode(t, "b", "", dirB, []Member{a.member()}, nodeOpts{})
	a.node.members.addMember(b.member())
	addrB := b.addr

	// Partition: b dies before computing anything.
	b.kill()

	ctx := context.Background()
	specs := specsOwnedBy(t, a.node.ring, "b", 5)
	for _, spec := range specs {
		if _, _, err := a.svc.Run(ctx, spec); err != nil {
			t.Fatalf("run with dead owner: %v", err)
		}
	}

	// The bound truncated the backlog: 5 results owed, only 2 spooled.
	if n := a.node.hints.PendingFor("b"); n != 2 {
		t.Fatalf("bounded hint backlog = %d, want 2", n)
	}
	dropped := a.node.metrics.hintsDropped.Value()
	if dropped != 3 {
		t.Fatalf("cluster_hints_dropped_total = %d, want 3", dropped)
	}

	// Heal: b comes back cold (same dir, empty journal). Hint replay
	// delivers the surviving 2; anti-entropy must supply the rest.
	b2 := startNode(t, "b", addrB, dirB, []Member{a.member()}, nodeOpts{})
	a.node.Sync(ctx)

	if n := a.node.hints.Pending(); n != 0 {
		t.Fatalf("cluster_hints_pending = %d after heal, want 0", n)
	}
	if pushed := a.node.metrics.aePushed.Value(); pushed != 3 {
		t.Errorf("cluster_antientropy_pushed_total = %d, want 3 (the dropped hints)", pushed)
	}
	if a.node.metrics.aeRounds.Value() == 0 {
		t.Error("no anti-entropy rounds recorded")
	}
	for _, spec := range specs {
		hash := mustHash(t, spec)
		if _, ok := b2.svc.Cached(hash); !ok {
			t.Errorf("anti-entropy did not restore cell %s", hash[:12])
		}
	}

	// Per-range digests agree: what a says b should hold is exactly
	// what b holds for itself.
	da, db := a.node.digestFor("b", nil), b2.node.digestFor("b", nil)
	if da.Total != db.Total || len(da.Buckets) != len(db.Buckets) {
		t.Fatalf("digest totals diverge after heal: a=%+v b=%+v", da, db)
	}
	for i := range da.Buckets {
		if da.Buckets[i] != db.Buckets[i] {
			t.Errorf("digest bucket %d diverges: %+v vs %+v", da.Buckets[i].Bucket, da.Buckets[i], db.Buckets[i])
		}
	}

	// A further round finds nothing to do — the exchange converged.
	pushed := a.node.metrics.aePushed.Value()
	a.node.AntiEntropyRound(ctx)
	if a.node.metrics.aePushed.Value() != pushed {
		t.Error("anti-entropy kept pushing after convergence")
	}
}

// TestJoinPullsOwnedRangesNoRecompute: a node joining a populated
// cluster pulls the key ranges it now owns through its first
// anti-entropy round instead of recomputing them — the whole cluster's
// compute count does not grow.
func TestJoinPullsOwnedRangesNoRecompute(t *testing.T) {
	a := startNode(t, "a", "", t.TempDir(), nil, nodeOpts{})

	grid := sweep.Grid{
		Machines:     []string{"single", "dual"},
		Schedulers:   []string{"none"},
		Seeds:        []int64{1, 2, 3, 4},
		Instructions: testInstructions,
	}
	specs, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	runSweep(t, a, grid, func(row sweep.SweepResultRow) {
		if row.Error != "" {
			t.Fatalf("row %d: %s", row.Index, row.Error)
		}
	})

	// c joins; its first Sync introduces it to a and pulls its ranges.
	c := startNode(t, "c", "", t.TempDir(), []Member{a.member()}, nodeOpts{})
	c.node.Sync(ctx)

	owned := 0
	for _, spec := range specs {
		hash := mustHash(t, spec)
		if c.node.ring.Owner(hash) != "c" {
			continue
		}
		owned++
		if _, ok := c.svc.Cached(hash); !ok {
			t.Errorf("joined node missing owned cell %s", hash[:12])
		}
	}
	if owned == 0 {
		t.Fatal("ring assigned c no cells — test proves nothing")
	}
	if pulled := c.node.metrics.aePulled.Value(); pulled < int64(owned) {
		t.Errorf("cluster_antientropy_pulled_total = %d, want >= %d", pulled, owned)
	}
	if misses := c.svc.Stats().Cache.Misses; misses != 0 {
		t.Errorf("join recomputed %d cells instead of pulling them", misses)
	}

	// Re-running the sweep anywhere computes nothing new.
	before := a.svc.Stats().Cache.Misses + c.svc.Stats().Cache.Misses
	runSweep(t, c, grid, func(row sweep.SweepResultRow) {
		if row.Error != "" {
			t.Fatalf("post-join row %d: %s", row.Index, row.Error)
		}
	})
	after := a.svc.Stats().Cache.Misses + c.svc.Stats().Cache.Misses
	if after != before {
		t.Errorf("post-join sweep recomputed %d cells; the cluster already held every result", after-before)
	}
}

// TestReadRepairRefreshesOwner: a replica-local cache hit for a
// non-owned hash verifies the owner still holds the result and pushes
// our copy when it does not.
func TestReadRepairRefreshesOwner(t *testing.T) {
	a := startNode(t, "a", "", t.TempDir(), nil, nodeOpts{})
	b := startNode(t, "b", "", t.TempDir(), []Member{a.member()}, nodeOpts{})
	a.node.members.addMember(b.member())

	// Divergence: a holds a replica of a b-owned result that b lost
	// (installed directly, as a stale journal recovery would).
	spec := specOwnedBy(t, a.node.ring, "b")
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	hash := mustHash(t, spec)
	if err := a.svc.StoreResult(&sweep.Result{Spec: norm, Hash: hash}); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.svc.Cached(hash); ok {
		t.Fatal("test setup broken: owner already has the result")
	}

	// Serving the spec from a is a replica-local hit → async repair.
	res, hit, err := a.svc.Run(context.Background(), spec)
	if err != nil || !hit || res.Hash != hash {
		t.Fatalf("replica hit: res=%v hit=%v err=%v", res, hit, err)
	}

	// Poll the counter, not the owner's cache: the metric ticks after the
	// push round-trip completes, so it is the last observable step.
	deadline := time.Now().Add(5 * time.Second)
	for a.node.metrics.readRepairs.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("read-repair never restored the owner's copy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := b.svc.Cached(hash); !ok {
		t.Fatal("repair counted but the owner still lacks the result")
	}
	if n := a.node.metrics.readRepairs.Value(); n != 1 {
		t.Errorf("cluster_read_repairs_total = %d, want 1", n)
	}

	// A second hit dedups: no new repair probe for the same hash.
	if _, hit, err := a.svc.Run(context.Background(), spec); err != nil || !hit {
		t.Fatalf("second hit: %v %v", hit, err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := a.node.metrics.readRepairs.Value(); n != 1 {
		t.Errorf("repeat hit re-repaired: counter = %d, want 1", n)
	}
}

// TestReadyzDegradedOnPeerMajorityDown: a node cut off from most of its
// cluster answers 503 on /readyz and reports degraded in status, so
// load balancers stop routing to the likely-isolated node.
func TestReadyzDegradedOnPeerMajorityDown(t *testing.T) {
	dead := []Member{
		{ID: "x", URL: "http://127.0.0.1:1"},
		{ID: "y", URL: "http://127.0.0.1:1"},
	}
	a := startNode(t, "a", "", t.TempDir(), dead, nodeOpts{})

	// Peers start optimistically up: ready until proven isolated.
	if status, body := httpGet(t, a.url()+"/readyz"); status != http.StatusOK {
		t.Fatalf("GET /readyz before probing = %d %s, want 200", status, body)
	}

	a.node.Sync(context.Background())
	if !a.node.members.DownMajority() {
		t.Fatal("both seed peers unreachable, DownMajority should hold")
	}
	status, body := httpGet(t, a.url()+"/readyz")
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), "degraded") {
		t.Errorf("GET /readyz while isolated = %d %q, want 503 degraded", status, body)
	}
	var sv statusView
	_, body = httpGet(t, a.url()+"/cluster/v1/status")
	if err := json.Unmarshal(body, &sv); err != nil {
		t.Fatal(err)
	}
	if sv.Health != "degraded" {
		t.Errorf("status health = %q, want degraded", sv.Health)
	}
	var metricsText strings.Builder
	if err := a.reg.WriteText(&metricsText); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metricsText.String(), "cluster_degraded 1") {
		t.Error("cluster_degraded gauge did not flip to 1")
	}
}

// TestDigestEndpointValidation nails the digest endpoint's contract.
func TestDigestEndpointValidation(t *testing.T) {
	a := startNode(t, "a", "", t.TempDir(), nil, nodeOpts{})
	if status, _ := httpGet(t, a.url()+"/cluster/v1/digest"); status != http.StatusBadRequest {
		t.Errorf("digest without ?for= %d, want 400", status)
	}
	spec := sweep.JobSpec{Benchmark: "compress", Seed: 1, Instructions: testInstructions}
	if _, _, err := a.svc.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	hash := mustHash(t, spec)
	b := digestBucket(hash)
	status, body := httpGet(t, fmt.Sprintf("%s/cluster/v1/digest?for=a&list=%d,notanumber,999", a.url(), b))
	if status != http.StatusOK {
		t.Fatalf("digest: %d %s", status, body)
	}
	var dv digestView
	if err := json.Unmarshal(body, &dv); err != nil {
		t.Fatal(err)
	}
	if dv.Total != 1 || len(dv.Hashes[b]) != 1 || dv.Hashes[b][0] != hash {
		t.Errorf("digest view %+v, want the one cached hash listed in bucket %d", dv, b)
	}
	// The transfer endpoint serves it; unknown hashes 404.
	if status, _ := httpGet(t, a.url()+"/cluster/v1/result/"+hash); status != http.StatusOK {
		t.Errorf("GET result/%s = %d, want 200", hash[:12], status)
	}
	if status, _ := httpGet(t, a.url()+"/cluster/v1/result/nosuchhash"); status != http.StatusNotFound {
		t.Errorf("GET result/nosuchhash = %d, want 404", status)
	}
}
