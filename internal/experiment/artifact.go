package experiment

// This file holds the shared trace artifacts of the execution kernel: the
// dynamic stream of one compiled binary at one budget is materialized once
// and cached next to the compile in the run memo, bounded by an LRU.
// CachedRun feeds every machine configuration of that binary from the
// cached artifact, so the cells of a sweep that share a (workload, seed,
// budget) share one trace-generation walk instead of paying it per cell.

import (
	"slices"
	"sync"
	"sync/atomic"

	"multicluster/internal/isa"
	"multicluster/internal/trace"
	"multicluster/internal/workload"
)

// artifactMaxInstrs caps the budget a trace is materialized at. An
// artifact costs ~9 bytes per dynamic instruction; past this cap runs fall
// back to live generation rather than holding tens of megabytes resident.
const artifactMaxInstrs = 2_000_000

// artifactCacheBound bounds how many artifacts stay resident in the run
// memo; the least recently used is forgotten (and regenerated on demand if
// a later run needs it again), together with the compiled binary it was
// materialized from and the runs it fed (recomputed on demand the same
// way).
const artifactCacheBound = 32

// traceKey addresses a materialized trace artifact: everything that
// determines the dynamic stream — the compiled binary (whose key carries
// the workload, seed, and profile budget) plus the instruction budget.
type traceKey struct {
	Kind    string     `json:"kind"` // "trace"
	Compile compileKey `json:"compile"`
	Instrs  int64      `json:"instructions"`
}

// traceGenerations counts full trace-generation walks, process-wide.
var traceGenerations atomic.Int64

// TraceGenerations returns how many trace-generation walks (artifact
// materializations) the process has performed — the observable behind "the
// trace is generated once per (workload, seed, budget), not once per
// cell", which the artifact-sharing tests and benchmarks assert on.
func TraceGenerations() int64 { return traceGenerations.Load() }

// residentArtifact names one resident artifact's memo entry, the memo
// entry of the compiled binary it was materialized from, and the memo
// entries of the runs it fed.
type residentArtifact struct {
	trace, compile string
	runs           []string
}

// artifactLRU orders resident artifacts, most recently used last, so the
// memo holds at most artifactCacheBound of them.
var artifactLRU struct {
	mu   sync.Mutex
	keys []residentArtifact
}

// touchArtifact marks the artifact of (ck, instrs) most recently used,
// records run as one of the runs it fed, and evicts beyond the bound.
// Evicting an artifact forgets everything derived from its binary at that
// budget — the trace, the compile entry and the runs — which would
// otherwise stay in the memo for the life of the process: with fresh
// seeds, one compile and one run result per cell.
func touchArtifact(ck compileKey, instrs int64, run string) {
	a := residentArtifact{
		trace:   hashKey(traceKey{Kind: "trace", Compile: ck, Instrs: instrs}),
		compile: hashKey(ck),
	}
	l := &artifactLRU
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, k := range l.keys {
		if k.trace == a.trace {
			a = k
			l.keys = append(l.keys[:i], l.keys[i+1:]...)
			break
		}
	}
	if !slices.Contains(a.runs, run) {
		a.runs = append(a.runs, run)
	}
	l.keys = append(l.keys, a)
	for len(l.keys) > artifactCacheBound {
		old := l.keys[0]
		runMemo.Forget(old.trace)
		runMemo.Forget(old.compile)
		for _, r := range old.runs {
			runMemo.Forget(r)
		}
		l.keys = append(l.keys[:0], l.keys[1:]...)
	}
}

// cachedArtifact returns the materialized trace for (binary, budget),
// generating it at most once per key process-wide. A nil artifact with a
// nil error means the budget exceeds artifactMaxInstrs and the caller
// should fall back to a live generator.
func cachedArtifact(benchName string, ck compileKey, mp *isa.Program, opts Options) (*trace.Artifact, error) {
	if opts.Instructions > artifactMaxInstrs {
		return nil, nil
	}
	key := hashKey(traceKey{Kind: "trace", Compile: ck, Instrs: opts.Instructions})
	av, err, _ := runMemo.Do(key, func() (any, error) {
		traceGenerations.Add(1)
		b := workload.ByName(benchName)
		art, err := trace.Materialize(mp, b.NewDriver(opts.Seed), opts.Instructions)
		if err != nil {
			return nil, err
		}
		return art, nil
	})
	if err != nil {
		return nil, err
	}
	return av.(*trace.Artifact), nil
}

// BatchGroupKey returns the content key of the trace artifact a run of
// (benchmark, scheduler, options) feeds from. Runs with equal keys share
// one compiled binary and one materialized trace. The empty string means
// the run has no shared artifact (unknown benchmark/scheduler, or a budget
// beyond the materialization cap).
func BatchGroupKey(benchName, schedName string, opts Options) string {
	opts = opts.withDefaults()
	if opts.Instructions > artifactMaxInstrs {
		return ""
	}
	if workload.ByName(benchName) == nil {
		return ""
	}
	if _, err := SchedulerByName(schedName, opts.Window); err != nil {
		return ""
	}
	ck := buildCompileKey(benchName, schedName, opts)
	return hashKey(traceKey{Kind: "trace", Compile: ck, Instrs: opts.Instructions})
}
