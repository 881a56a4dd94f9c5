package sweep

import (
	"strings"
	"testing"

	"multicluster/internal/core"
)

func TestNormalizeDefaults(t *testing.T) {
	n, err := JobSpec{Benchmark: "compress"}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if n.Machine != "dual" || n.Scheduler != "none" || n.Seed != 42 ||
		n.Instructions != 300_000 || n.ProfileInstructions != 50_000 {
		t.Fatalf("unexpected defaults: %+v", n)
	}
}

func TestNormalizeRejectsBadSpecs(t *testing.T) {
	for _, spec := range []JobSpec{
		{Benchmark: "nonesuch"},
		{Benchmark: "compress", Machine: "warp9"},
		{Benchmark: "compress", Scheduler: "simulated-annealing"},
		{Benchmark: "compress", Config: &core.Config{Clusters: 3}},
	} {
		if _, err := spec.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted a bad spec", spec)
		}
	}
}

func TestHashStability(t *testing.T) {
	a, err := JobSpec{Benchmark: "compress", Machine: "dual", Scheduler: "local"}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	b, err := JobSpec{Benchmark: "compress", Machine: "dual", Scheduler: "local", Seed: 42, Instructions: 300_000}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("defaulted and explicit specs hash differently: %s vs %s", a, b)
	}

	// A named machine and its explicit configuration address the same
	// content.
	cfg := core.DualCluster4Way()
	c, err := JobSpec{Benchmark: "compress", Config: &cfg, Scheduler: "local"}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatalf("explicit config hashes differently from named machine")
	}

	// The window is folded away for schedulers that ignore it...
	d1, _ := JobSpec{Benchmark: "compress", Scheduler: "none", Window: 9}.Hash()
	d2, _ := JobSpec{Benchmark: "compress", Scheduler: "none"}.Hash()
	if d1 != d2 {
		t.Fatalf("window not folded for non-local scheduler")
	}
	// ...but distinguishes local-scheduler binaries.
	e1, _ := JobSpec{Benchmark: "compress", Scheduler: "local", Window: 9}.Hash()
	e2, _ := JobSpec{Benchmark: "compress", Scheduler: "local"}.Hash()
	if e1 == e2 {
		t.Fatalf("window ignored for local scheduler")
	}

	f, _ := JobSpec{Benchmark: "compress", Machine: "dual", Scheduler: "local", Seed: 7}.Hash()
	if f == a {
		t.Fatalf("different seeds hash identically")
	}
}

func TestGridExpandDedupes(t *testing.T) {
	specs, err := Grid{
		Benchmarks: []string{"ora"},
		Machines:   []string{"dual"},
		Schedulers: []string{"none", "local"},
		Windows:    []int{0, 8},
	}.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	// none/w0 and none/w8 collapse; local/w0 and local/w8 stay distinct.
	if len(specs) != 3 {
		t.Fatalf("expanded to %d specs, want 3: %+v", len(specs), specs)
	}
}

func TestGridExpandDefaults(t *testing.T) {
	specs, err := Grid{}.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	// 6 benchmarks × 2 machines × 2 schedulers, minus the single/local
	// duplicate? No — single/none and single/local are distinct binaries.
	if len(specs) != 24 {
		t.Fatalf("default grid expanded to %d specs, want 24", len(specs))
	}
	for _, s := range specs {
		if strings.Contains(s.String(), "custom") {
			t.Fatalf("default grid produced a custom config: %s", s)
		}
	}
}

// TestNormalizeClampsProfileBudget is the regression test for the
// profile-budget derivation: Instructions/6 floors to zero for budgets
// under six, and zero means *unlimited* to the profiling pass — before
// the clamp a 3-instruction canary spec profiled the driver's whole path.
func TestNormalizeClampsProfileBudget(t *testing.T) {
	n, err := JobSpec{Benchmark: "ora", Instructions: 3}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.ProfileInstructions != 1 {
		t.Errorf("Instructions=3: ProfileInstructions = %d, want 1", n.ProfileInstructions)
	}
	n, err = JobSpec{Benchmark: "ora", Instructions: 60_000}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.ProfileInstructions != 10_000 {
		t.Errorf("Instructions=60000: ProfileInstructions = %d, want 10000", n.ProfileInstructions)
	}
	// A negative budget means the default, exactly like zero.
	n, err = JobSpec{Benchmark: "ora", Instructions: 60_000, ProfileInstructions: -5}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.ProfileInstructions != 10_000 {
		t.Errorf("ProfileInstructions=-5: ProfileInstructions = %d, want 10000", n.ProfileInstructions)
	}
}
