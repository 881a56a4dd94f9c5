package experiment

import (
	"encoding/json"
	"testing"

	"multicluster/internal/core"
	"multicluster/internal/workload"
)

// TestWithDefaultsClampsProfileBudget is the regression test for the
// profile-budget derivation: Instructions/6 floors to zero for budgets
// under six, and zero means *unlimited* to trace.Profile — before the
// clamp, a 3-instruction run profiled the driver's whole path.
func TestWithDefaultsClampsProfileBudget(t *testing.T) {
	for _, instrs := range []int64{1, 2, 3, 4, 5} {
		o := (Options{Instructions: instrs}).withDefaults()
		if o.ProfileInstructions != 1 {
			t.Errorf("Instructions=%d: ProfileInstructions = %d, want 1", instrs, o.ProfileInstructions)
		}
	}
	if o := (Options{Instructions: 6}).withDefaults(); o.ProfileInstructions != 1 {
		t.Errorf("Instructions=6: ProfileInstructions = %d, want 1", o.ProfileInstructions)
	}
	if o := (Options{Instructions: 60_000}).withDefaults(); o.ProfileInstructions != 10_000 {
		t.Errorf("Instructions=60000: ProfileInstructions = %d, want 10000", o.ProfileInstructions)
	}
	// An explicit budget is never rewritten.
	if o := (Options{Instructions: 3, ProfileInstructions: 7}).withDefaults(); o.ProfileInstructions != 7 {
		t.Errorf("explicit ProfileInstructions rewritten to %d", o.ProfileInstructions)
	}
}

// artifactMachines is the four-machine grid the artifact tests step over.
func artifactMachines() []core.Config {
	return []core.Config{
		core.SingleCluster8Way(),
		core.DualCluster4Way(),
		core.SingleCluster4Way(),
		core.DualCluster2Way(),
	}
}

// TestCachedRunMatchesUncached proves CachedRun over four machines, all
// fed from one shared trace artifact, is byte-identical to the uncached
// Compile/Simulate path for every machine.
func TestCachedRunMatchesUncached(t *testing.T) {
	opts := shortOpts()
	opts.Seed = 424242 // private key space for this test

	b := workload.ByName("ora")
	mp, _, err := Compile(b, nil, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for i, cfg := range artifactMachines() {
		cached, err := CachedRun("ora", "none", cfg, opts)
		if err != nil {
			t.Fatalf("CachedRun machine %d: %v", i, err)
		}
		direct, err := Simulate(mp, b, cfg, opts)
		if err != nil {
			t.Fatalf("Simulate machine %d: %v", i, err)
		}
		want, _ := json.Marshal(direct)
		got, _ := json.Marshal(cached.Stats)
		if string(got) != string(want) {
			t.Errorf("machine %d: cached stats differ from uncached path:\n cached: %s\n direct: %s", i, got, want)
		}
	}
}

// TestTraceGeneratedOncePerArtifact is the generation-count assertion:
// across runs of four machines, each repeated, over the same (workload,
// seed, budget), the trace is generated exactly once.
func TestTraceGeneratedOncePerArtifact(t *testing.T) {
	opts := shortOpts()
	opts.Seed = 454545 // private key space for this test

	before := TraceGenerations()
	for pass := 0; pass < 2; pass++ {
		for _, cfg := range artifactMachines() {
			if _, err := CachedRun("compress", "none", cfg, opts); err != nil {
				t.Fatalf("CachedRun: %v", err)
			}
		}
	}
	if got := TraceGenerations() - before; got != 1 {
		t.Errorf("trace generated %d times for one (workload, seed, budget), want exactly 1", got)
	}
}

// TestBatchGroupKey pins the grouping contract: same binary and budget
// share a key, anything that changes the trace separates, and runs with
// no shared artifact return the empty key.
func TestBatchGroupKey(t *testing.T) {
	opts := shortOpts()
	base := BatchGroupKey("ora", "none", opts)
	if base == "" {
		t.Fatal("artifact-backed spec returned an empty group key")
	}
	if got := BatchGroupKey("ora", "none", opts); got != base {
		t.Error("identical specs got different group keys")
	}
	if got := BatchGroupKey("ora", "local", opts); got == base {
		t.Error("different scheduler shares a group key")
	}
	other := opts
	other.Seed++
	if got := BatchGroupKey("ora", "none", other); got == base {
		t.Error("different seed shares a group key")
	}
	big := opts
	big.Instructions = artifactMaxInstrs + 1
	if got := BatchGroupKey("ora", "none", big); got != "" {
		t.Error("budget beyond the materialization cap still grouped")
	}
	if got := BatchGroupKey("nope", "none", opts); got != "" {
		t.Error("unknown benchmark got a group key")
	}
}

// TestArtifactEvictionForgetsDerivedEntries: evicting an artifact from
// the LRU also drops its binary's compile entry and the runs it fed, so
// fresh-seed cells do not pile up in the memo. A run whose own artifact is
// still resident stays a memo hit even after its compile entry went with a
// sibling artifact (same binary, other budget); a forgotten run recomputes
// its compile, trace and simulation, byte-identically.
func TestArtifactEvictionForgetsDerivedEntries(t *testing.T) {
	opts := shortOpts()
	opts.ProfileInstructions = 1_000
	cfg := core.DualCluster4Way()
	run := func(seed, instrs int64) RunResult {
		t.Helper()
		o := opts
		o.Seed = seed
		o.Instructions = instrs
		rr, err := CachedRun("ora", "none", cfg, o)
		if err != nil {
			t.Fatalf("CachedRun seed %d, %d instructions: %v", seed, instrs, err)
		}
		return rr
	}
	misses := func(f func()) int64 {
		t.Helper()
		_, before := RunCacheStats()
		f()
		_, after := RunCacheStats()
		return after - before
	}
	const seed0 = 484800 // private key space for this test
	const evicted, kept = 3_000, 2_000
	o := opts
	o.Seed = seed0
	firstCompile := hashKey(buildCompileKey("ora", "none", o))
	resident := func() bool {
		_, _, ok := runMemo.Get(firstCompile)
		return ok
	}

	// Two artifacts of one binary, then artifactCacheBound-1 others: the
	// LRU is full and the first artifact is its oldest entry.
	first := run(seed0, evicted)
	run(seed0, kept)
	for i := int64(1); i < artifactCacheBound-1; i++ {
		run(seed0+i, evicted)
	}
	if !resident() {
		t.Fatal("compile entry forgotten while its artifacts are still resident")
	}
	run(seed0+artifactCacheBound, evicted)
	if resident() {
		t.Fatal("compile entry still resident after its artifact was evicted")
	}

	if n := misses(func() { run(seed0, kept) }); n != 0 {
		t.Errorf("repeat of a run whose artifact is resident: %d memo misses, want 0", n)
	}
	var again RunResult
	if n := misses(func() { again = run(seed0, evicted) }); n != 3 {
		t.Errorf("rerun after eviction: %d memo misses, want 3 (run, compile, trace)", n)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Errorf("results differ after recomputing:\n first: %s\n again: %s", a, b)
	}
}
