// Package experiment wires the full methodology of §4 together: profile a
// workload, partition and allocate its live ranges, lower to machine code,
// generate the dynamic trace, and simulate it on single- and dual-cluster
// processors. It regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the index).
package experiment

import (
	"context"
	"fmt"
	"sync"

	"multicluster/internal/codegen"
	"multicluster/internal/conc"
	"multicluster/internal/core"
	"multicluster/internal/isa"
	"multicluster/internal/partition"
	"multicluster/internal/regalloc"
	"multicluster/internal/sched"
	"multicluster/internal/trace"
	"multicluster/internal/workload"
)

// Options configures one evaluation campaign.
type Options struct {
	// Instructions is the dynamic instruction budget per simulation.
	Instructions int64
	// ProfileInstructions is the dynamic budget of the profiling pass that
	// feeds the local scheduler (footnote 1 of §3.5).
	ProfileInstructions int64
	// Seed drives the behaviour drivers; the same seed is used for the
	// profiling run and every simulation so all binaries see one workload.
	Seed int64
	// Window is the local scheduler's imbalance threshold (0 = default).
	Window int
	// PostSchedule applies the post-pass list scheduler (methodology step
	// 6) after register allocation.
	PostSchedule bool
	// Single and Dual are the processor configurations; zero values mean
	// the paper's eight-way machines.
	Single, Dual core.Config
	// Probes, when non-nil, is installed on every processor Simulate
	// constructs (see core.Probes). Probes observe without perturbing the
	// simulation, and they are deliberately excluded from the
	// content-addressed run keys — which also means a CachedRun served
	// from the memo never re-simulates and therefore never fires them.
	Probes *core.Probes
}

// DefaultInstructions is the evaluation's dynamic-instruction budget:
// large enough for the caches and predictors to reach steady state while
// keeping a full Table 2 run under a minute.
const DefaultInstructions = 300_000

// DefaultOptions returns the evaluation setup used throughout: the paper's
// eight-way configurations and the DefaultInstructions budget.
func DefaultOptions() Options {
	return Options{
		Instructions:        DefaultInstructions,
		ProfileInstructions: 50_000,
		Seed:                42,
		Single:              core.SingleCluster8Way(),
		Dual:                core.DualCluster4Way(),
	}
}

// DefaultProfileBudget is the profiling-pass budget of a run of instrs
// dynamic instructions when none is given: instrs/6, at least one. The
// divide floors to zero for budgets under six, and zero means *unlimited*
// to trace.Profile — a tiny simulation would profile the driver's entire
// path. At the default 300k budget it is the historical fixed 50k.
func DefaultProfileBudget(instrs int64) int64 {
	if b := instrs / 6; b >= 1 {
		return b
	}
	return 1
}

func (o Options) withDefaults() Options {
	if o.Instructions == 0 {
		o.Instructions = DefaultInstructions
	}
	if o.ProfileInstructions == 0 {
		o.ProfileInstructions = DefaultProfileBudget(o.Instructions)
	}
	if o.Single.Clusters == 0 {
		o.Single = core.SingleCluster8Way()
	}
	if o.Dual.Clusters == 0 {
		o.Dual = core.DualCluster4Way()
	}
	if o.Single.MaxCycles == 0 {
		o.Single.MaxCycles = o.Instructions * 40
	}
	if o.Dual.MaxCycles == 0 {
		o.Dual.MaxCycles = o.Instructions * 40
	}
	return o
}

// Compile runs the static pipeline for one benchmark. A nil partitioner
// selects native (cluster-oblivious) allocation — the paper's "no
// rescheduling" binaries. The benchmark's block profile estimates are
// refreshed from a profiling run first.
func Compile(b *workload.Benchmark, part partition.Partitioner, opts Options) (*isa.Program, *regalloc.Result, error) {
	opts = opts.withDefaults()
	trace.Profile(b.Program, b.NewDriver(opts.Seed), opts.ProfileInstructions)
	var pr *partition.Result
	clustered := false
	if part != nil {
		pr = part.Partition(b.Program)
		if err := pr.Validate(b.Program); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		clustered = true
	}
	alloc, err := regalloc.Allocate(b.Program, pr, regalloc.Config{
		Assignment:        opts.Dual.Assignment,
		Clustered:         clustered,
		OtherClusterSpill: true,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	if opts.PostSchedule {
		alloc = sched.PostPass(alloc)
	}
	mp, err := codegen.Lower(alloc)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	return mp, alloc, nil
}

// Simulate runs one binary for one benchmark on one configuration, feeding
// the processor from a live trace generator.
func Simulate(mp *isa.Program, b *workload.Benchmark, cfg core.Config, opts Options) (core.Stats, error) {
	opts = opts.withDefaults()
	gen, err := trace.NewGenerator(mp, b.NewDriver(opts.Seed), opts.Instructions)
	if err != nil {
		return core.Stats{}, fmt.Errorf("%s: %w", b.Name, err)
	}
	return SimulateReader(gen, b.Name, cfg, opts)
}

// SimulateReader runs one configuration over an already-constructed dynamic
// instruction stream — a live generator or a cursor over a materialized
// trace.Artifact. The stream fully determines the simulation, so the two
// feeding paths produce byte-identical statistics (the golden suite pins
// this). name labels errors.
func SimulateReader(r trace.Reader, name string, cfg core.Config, opts Options) (core.Stats, error) {
	opts = opts.withDefaults()
	p, err := core.New(cfg, r)
	if err != nil {
		return core.Stats{}, fmt.Errorf("%s: %w", name, err)
	}
	if opts.Probes != nil {
		p.SetProbes(opts.Probes)
	}
	stats, err := p.Run()
	if err != nil {
		return stats, fmt.Errorf("%s: %w", name, err)
	}
	if stats.Stop != core.StopTraceEnd {
		return stats, fmt.Errorf("%s: simulation hit the cycle limit (%v)", name, stats)
	}
	return stats, nil
}

// Table2Row is one line of the paper's Table 2: the percentage
// speedup/slowdown of the dual-cluster machine relative to the eight-way
// single-cluster machine, for the native binary ("none") and the
// local-scheduler binary ("local"). Negative values are slowdowns, exactly
// as the paper prints them (100 − 100·Cdual/Csingle).
type Table2Row struct {
	Benchmark string

	SingleCycles    int64
	DualNoneCycles  int64
	DualLocalCycles int64

	NonePct  float64
	LocalPct float64

	SingleStats core.Stats
	NoneStats   core.Stats
	LocalStats  core.Stats
}

// speedupPct converts a cycle pair into the paper's percentage form.
func speedupPct(single, dual int64) float64 {
	return 100 - 100*float64(dual)/float64(single)
}

// CycleRatio returns Cdual/Csingle for the given column.
func (r Table2Row) CycleRatio(local bool) float64 {
	if local {
		return float64(r.DualLocalCycles) / float64(r.SingleCycles)
	}
	return float64(r.DualNoneCycles) / float64(r.SingleCycles)
}

// Table2Bench computes one benchmark's Table 2 row. For the registry
// benchmarks every compile and simulation goes through the process-wide
// content-addressed cache, so the native binary is compiled once for its
// two machines and repeated baselines (e.g. the single-cluster run shared
// by both assignment schemes in CompareAssignments) are computed once per
// process.
func Table2Bench(b *workload.Benchmark, opts Options) (Table2Row, error) {
	opts = opts.withDefaults()
	row := Table2Row{Benchmark: b.Name}

	if workload.ByName(b.Name) != nil {
		single, none, local, err := table2Runs(b.Name, opts)
		if err != nil {
			return row, err
		}
		return NewTable2Row(b.Name, single, none, local), nil
	}

	// Ad-hoc benchmark outside the registry: run uncached.
	native, _, err := Compile(b, nil, opts)
	if err != nil {
		return row, err
	}
	local, _, err := Compile(b, partition.Local{Window: opts.Window}, opts)
	if err != nil {
		return row, err
	}

	var single, none, localStats core.Stats
	if single, err = Simulate(native, b, opts.Single, opts); err != nil {
		return row, fmt.Errorf("single-cluster: %w", err)
	}
	if none, err = Simulate(native, b, opts.Dual, opts); err != nil {
		return row, fmt.Errorf("dual/none: %w", err)
	}
	if localStats, err = Simulate(local, b, opts.Dual, opts); err != nil {
		return row, fmt.Errorf("dual/local: %w", err)
	}
	return NewTable2Row(b.Name, single, none, localStats), nil
}

// table2Runs performs the three cached runs behind one Table 2 row. The
// native binary's two machines share one trace artifact; the local binary
// (different machine program, different trace) has its own.
func table2Runs(bench string, opts Options) (single, none, local core.Stats, err error) {
	sr, err := CachedRun(bench, "none", opts.Single, opts)
	if err != nil {
		return single, none, local, fmt.Errorf("single-cluster: %w", err)
	}
	nr, err := CachedRun(bench, "none", opts.Dual, opts)
	if err != nil {
		return single, none, local, fmt.Errorf("dual/none: %w", err)
	}
	lr, err := CachedRun(bench, "local", opts.Dual, opts)
	if err != nil {
		return single, none, local, fmt.Errorf("dual/local: %w", err)
	}
	return sr.Stats, nr.Stats, lr.Stats, nil
}

// NewTable2Row assembles a Table 2 row from the three runs behind it: the
// native binary on the single-cluster machine, the native binary on the
// dual-cluster machine, and the local-scheduler binary on the dual-cluster
// machine.
func NewTable2Row(bench string, single, none, local core.Stats) Table2Row {
	row := Table2Row{
		Benchmark:   bench,
		SingleStats: single,
		NoneStats:   none,
		LocalStats:  local,
	}
	row.SingleCycles = single.Cycles
	row.DualNoneCycles = none.Cycles
	row.DualLocalCycles = local.Cycles
	row.NonePct = speedupPct(row.SingleCycles, row.DualNoneCycles)
	row.LocalPct = speedupPct(row.SingleCycles, row.DualLocalCycles)
	return row
}

// Table2 computes the full table over the paper's six benchmarks. The
// benchmarks are independent (each gets its own workload instance, drivers,
// and processors), so they run concurrently — bounded by the process-wide
// conc.CPU semaphore so nested campaigns cannot oversubscribe the machine;
// results stay in the paper's order and are deterministic.
func Table2(opts Options) ([]Table2Row, error) {
	benches := workload.All()
	rows := make([]Table2Row, len(benches))
	errs := make([]error, len(benches))
	var wg sync.WaitGroup
	for i, b := range benches {
		wg.Add(1)
		go func(i int, b *workload.Benchmark) {
			defer wg.Done()
			if errs[i] = conc.CPU.Acquire(context.Background()); errs[i] != nil {
				return
			}
			defer conc.CPU.Release()
			rows[i], errs[i] = Table2Bench(b, opts)
		}(i, b)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return rows, fmt.Errorf("%s: %w", benches[i].Name, err)
		}
	}
	return rows, nil
}
