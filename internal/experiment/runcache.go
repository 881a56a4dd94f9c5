package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"multicluster/internal/conc"
	"multicluster/internal/core"
	"multicluster/internal/isa"
	"multicluster/internal/partition"
	"multicluster/internal/regalloc"
	"multicluster/internal/workload"
)

// This file is the execution kernel shared by every campaign and by the
// sweep service: named registries for machines and schedulers, and a
// content-addressed, single-flight memo over Compile and Simulate. The
// memo is what makes repeated baselines free — Table2Bench simulates the
// native binary on two machines from one compile, and CompareAssignments
// recomputes its single-cluster baseline zero times instead of twice.

// MachineNames lists the named processor configurations, in menu order.
func MachineNames() []string { return []string{"single", "dual", "single4", "dual2"} }

// MachineByName resolves a named processor configuration: "single" (8-way
// single cluster), "dual" (2×4-way multicluster), "single4", "dual2".
func MachineByName(name string) (core.Config, error) {
	switch name {
	case "single":
		return core.SingleCluster8Way(), nil
	case "dual":
		return core.DualCluster4Way(), nil
	case "single4":
		return core.SingleCluster4Way(), nil
	case "dual2":
		return core.DualCluster2Way(), nil
	}
	return core.Config{}, fmt.Errorf("experiment: unknown machine %q (single, dual, single4, dual2)", name)
}

// SchedulerNames lists the named schedulers, in menu order.
func SchedulerNames() []string { return []string{"none", "local", "hash", "roundrobin", "affinity"} }

// SchedulerByName resolves a named scheduler. "none" is the native,
// cluster-oblivious allocation (a nil Partitioner).
func SchedulerByName(name string, window int) (partition.Partitioner, error) {
	switch name {
	case "none", "":
		return nil, nil
	case "local":
		return partition.Local{Window: window}, nil
	case "hash":
		return partition.Hash{}, nil
	case "roundrobin":
		return partition.RoundRobin{}, nil
	case "affinity":
		return partition.Affinity{}, nil
	}
	return nil, fmt.Errorf("experiment: unknown scheduler %q (none, local, hash, roundrobin, affinity)", name)
}

// RunResult is the outcome of one compile+simulate run: the simulation
// statistics plus the compile-side counters worth reporting across an API.
type RunResult struct {
	Stats   core.Stats
	Spilled int
	Demoted int
}

// runMemo memoizes compiled binaries, trace artifacts and run results
// across every campaign in the process. Entries are immutable once
// computed: machine programs are read-only during simulation and run
// results are value types.
var runMemo conc.Memo

// hashKey canonicalizes any JSON-encodable key structure into a hex
// content hash.
func hashKey(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Key structures are plain data; this cannot fail at runtime.
		panic(fmt.Sprintf("experiment: unhashable key: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// compileKey captures everything that determines the output of Compile.
type compileKey struct {
	Kind      string         `json:"kind"` // "compile"
	Benchmark string         `json:"benchmark"`
	Scheduler string         `json:"scheduler"`
	Window    int            `json:"window"`
	Seed      int64          `json:"seed"`
	Profile   int64          `json:"profile_instructions"`
	PostSched bool           `json:"post_schedule"`
	Assign    isa.Assignment `json:"assignment"`
}

// runKey captures everything that determines the output of Simulate: the
// compiled binary's key plus the machine and the dynamic budget.
type runKey struct {
	Kind    string      `json:"kind"` // "run"
	Compile compileKey  `json:"compile"`
	Machine core.Config `json:"machine"`
	Instrs  int64       `json:"instructions"`
}

type compiledBinary struct {
	mp    *isa.Program
	alloc *regalloc.Result
}

// buildCompileKey canonicalizes the compile-determining options into a
// compileKey. Only the local scheduler reads the window; it is folded out
// of the key for the others so equivalent specs share one entry.
func buildCompileKey(benchName, schedName string, opts Options) compileKey {
	window := opts.Window
	if schedName != "local" {
		window = 0
	}
	return compileKey{
		Kind:      "compile",
		Benchmark: benchName,
		Scheduler: schedName,
		Window:    window,
		Seed:      opts.Seed,
		Profile:   opts.ProfileInstructions,
		PostSched: opts.PostSchedule,
		Assign:    opts.Dual.Assignment,
	}
}

// cachedCompile returns the compiled binary for ck, compiling it once
// process-wide.
func cachedCompile(benchName, schedName string, ck compileKey, opts Options) (compiledBinary, error) {
	cv, err, _ := runMemo.Do(hashKey(ck), func() (any, error) {
		// A fresh benchmark instance per compile: profiling refreshes the
		// IL program's block estimates in place, so the instance must not
		// be shared with a concurrent compile.
		b := workload.ByName(benchName)
		part, err := SchedulerByName(schedName, opts.Window)
		if err != nil {
			return nil, err
		}
		mp, alloc, err := Compile(b, part, opts)
		if err != nil {
			return nil, err
		}
		return compiledBinary{mp: mp, alloc: alloc}, nil
	})
	if err != nil {
		return compiledBinary{}, err
	}
	return cv.(compiledBinary), nil
}

// CachedRun compiles the named benchmark under the named scheduler and
// simulates it on cfg, memoizing both steps in the process-wide
// content-addressed cache. Identical (benchmark, scheduler, machine,
// options) requests — concurrent or sequential — share one computation;
// results are byte-identical to the uncached Compile/Simulate path because
// the underlying simulation is deterministic in (spec, seed). The run
// entry is consulted first and holds the whole RunResult, so a repeated
// run needs no compile entry.
//
// When the budget permits, the simulation feeds from a materialized trace
// artifact cached next to the compile (see cachedArtifact), so every
// machine configuration of the same binary shares one trace-generation
// walk, and the run's entries leave the memo with that artifact (see
// touchArtifact).
func CachedRun(benchName, schedName string, cfg core.Config, opts Options) (RunResult, error) {
	opts = opts.withDefaults()
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = opts.Instructions * 40
	}
	if workload.ByName(benchName) == nil {
		return RunResult{}, fmt.Errorf("experiment: unknown benchmark %q", benchName)
	}
	if _, err := SchedulerByName(schedName, opts.Window); err != nil {
		return RunResult{}, err
	}
	ck := buildCompileKey(benchName, schedName, opts)
	rk := hashKey(runKey{Kind: "run", Compile: ck, Machine: cfg, Instrs: opts.Instructions})
	rv, err, _ := runMemo.Do(rk, func() (any, error) {
		bin, err := cachedCompile(benchName, schedName, ck, opts)
		if err != nil {
			return nil, err
		}
		stats, err := simulateCell(benchName, ck, bin, cfg, opts)
		if err != nil {
			return nil, err
		}
		return RunResult{Stats: stats, Spilled: bin.alloc.Spilled, Demoted: bin.alloc.Demoted}, nil
	})
	if opts.Instructions <= artifactMaxInstrs {
		touchArtifact(ck, opts.Instructions, rk)
	}
	if err != nil {
		return RunResult{}, err
	}
	return rv.(RunResult), nil
}

// simulateCell simulates one run: artifact-fed when the budget permits
// materialization, generator-fed otherwise. The two paths are
// byte-identical.
func simulateCell(benchName string, ck compileKey, bin compiledBinary, cfg core.Config, opts Options) (core.Stats, error) {
	art, err := cachedArtifact(benchName, ck, bin.mp, opts)
	if err != nil {
		return core.Stats{}, err
	}
	if art != nil {
		return SimulateReader(art.NewReader(), benchName, cfg, opts)
	}
	return Simulate(bin.mp, workload.ByName(benchName), cfg, opts)
}

// RunCacheStats reports the process-wide run-memo counters: how many
// compile/simulate computations were served from the cache versus executed.
func RunCacheStats() (hits, misses int64) {
	return runMemo.Hits(), runMemo.Misses()
}
