package experiment

import (
	"encoding/json"
	"sync"
	"testing"

	"multicluster/internal/workload"
)

// shortOpts keeps cache tests fast.
func shortOpts() Options {
	opts := DefaultOptions()
	opts.Instructions = 20_000
	opts.ProfileInstructions = 5_000
	return opts
}

// TestCachedRunDeterministicAndDeduped proves the content-addressed cache
// returns the identical result for a repeated spec without recomputing,
// and that the cached result is byte-identical to the uncached
// Compile/Simulate path.
func TestCachedRunDeterministicAndDeduped(t *testing.T) {
	opts := shortOpts()
	opts.Seed = 1234 // private key space for this test

	h0, m0 := RunCacheStats()
	first, err := CachedRun("compress", "local", opts.Dual, opts)
	if err != nil {
		t.Fatalf("CachedRun: %v", err)
	}
	_, m1 := RunCacheStats()
	if m1-m0 != 3 { // one compile + one trace artifact + one simulate
		t.Fatalf("first run executed %d computations, want 3", m1-m0)
	}

	second, err := CachedRun("compress", "local", opts.Dual, opts)
	if err != nil {
		t.Fatalf("CachedRun (repeat): %v", err)
	}
	h2, m2 := RunCacheStats()
	if m2 != m1 {
		t.Fatalf("repeat run recomputed (%d new misses)", m2-m1)
	}
	if h2-h0 != 1 { // the run entry; its compile is not consulted
		t.Fatalf("repeat run recorded %d hits, want 1", h2-h0)
	}

	// Byte-identical to the one-shot path.
	b := workload.ByName("compress")
	part, err := SchedulerByName("local", opts.Window)
	if err != nil {
		t.Fatal(err)
	}
	mp, _, err := Compile(b, part, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	direct, err := Simulate(mp, b, opts.Dual, opts)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	want, _ := json.Marshal(direct)
	got1, _ := json.Marshal(first.Stats)
	got2, _ := json.Marshal(second.Stats)
	if string(got1) != string(want) || string(got2) != string(want) {
		t.Fatalf("cached result differs from one-shot path:\n cached: %s\n direct: %s", got1, want)
	}
}

// TestCompareAssignmentsSharesBaseline proves the single-cluster baseline
// is computed once even though both assignment schemes need it: the
// low/high comparison adds only the runs that actually differ.
func TestCompareAssignmentsSharesBaseline(t *testing.T) {
	opts := shortOpts()
	opts.Seed = 5678 // private key space for this test

	_, m0 := RunCacheStats()
	if _, err := CompareAssignments("ora", opts); err != nil {
		t.Fatalf("CompareAssignments: %v", err)
	}
	_, m1 := RunCacheStats()

	// Even/odd row: native compile, native trace artifact, one simulation
	// per native machine (single and dual, both fed from that artifact),
	// local compile, local trace, local simulation = 7. Low/high row: the
	// native compile and the single-cluster simulation are
	// assignment-independent only in effect, not in key (the compile key
	// includes the assignment), so it adds its own 7; but the repeated
	// single-cluster baseline *within* each row costs nothing extra.
	perRow := int64(7)
	if got := m1 - m0; got != 2*perRow {
		t.Fatalf("CompareAssignments executed %d computations, want %d", got, 2*perRow)
	}

	// A second comparison over the same spec is entirely cache-served.
	if _, err := CompareAssignments("ora", opts); err != nil {
		t.Fatalf("CompareAssignments (repeat): %v", err)
	}
	_, m2 := RunCacheStats()
	if m2 != m1 {
		t.Fatalf("repeat comparison recomputed %d entries", m2-m1)
	}
}

// TestConcurrentIdenticalRunsSingleFlight submits the same spec from many
// goroutines and proves exactly one simulation ran.
func TestConcurrentIdenticalRunsSingleFlight(t *testing.T) {
	opts := shortOpts()
	opts.Seed = 9999 // private key space for this test

	_, m0 := RunCacheStats()
	const n = 12
	results := make([]RunResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = CachedRun("ora", "none", opts.Dual, opts)
		}(i)
	}
	wg.Wait()
	_, m1 := RunCacheStats()
	if got := m1 - m0; got != 3 {
		t.Fatalf("%d concurrent identical runs executed %d computations, want 3 (compile, trace, simulate)", n, got)
	}
	want, _ := json.Marshal(results[0].Stats)
	for i := 1; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		got, _ := json.Marshal(results[i].Stats)
		if string(got) != string(want) {
			t.Fatalf("run %d diverged", i)
		}
	}
}
