package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"multicluster/internal/codegen"
	"multicluster/internal/core"
	"multicluster/internal/experiment"
	"multicluster/internal/isa"
	"multicluster/internal/partition"
	"multicluster/internal/regalloc"
	"multicluster/internal/sweep"
	"multicluster/internal/trace"
	"multicluster/internal/workload"
)

// The traced run replays every cold cell of its window through direct
// calls into each layer's public functions, in the order the service runs
// them: Normalize and Hash, ByName, the compile children (Profile,
// Partition, Allocate, Lower), Materialize, the core (New + Run, or
// RunBatch for a sweep group), and Journal.Append on a scratch journal.
// Each call is one span, and every recomputed Stats is byte-compared with
// what the API returned.

// replayer holds the replay's scratch journal and its core accounting.
type replayer struct {
	tr      *tracer
	svc     *sweep.Service
	journal *sweep.Journal
	// core accounting: instructions simulated and the time, allocations
	// and bytes spent in the core calls.
	soloInstrs, batchInstrs int64
	soloTime, batchTime     time.Duration
	mallocs, bytes          uint64
	// trace accounting: instructions materialized and the time it took.
	matInstrs int64
	matTime   time.Duration
	// cells and batch groups replayed, and the cells whose stats differed.
	cells, groups, mismatches int
	errs                      []string
}

func newReplayer(tr *tracer, svc *sweep.Service, dir string) (*replayer, error) {
	j, err := sweep.OpenJournal(filepath.Join(dir, "replay.journal"))
	if err != nil {
		return nil, err
	}
	return &replayer{tr: tr, svc: svc, journal: j}, nil
}

func (r *replayer) close() { r.journal.Close() }

func (r *replayer) mismatch(format string, args ...any) {
	r.mismatches++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// front replays what the service does before any simulation: Normalize,
// Hash, ByName, and the cache lookup.
func (r *replayer) front(op, parent int64, spec sweep.JobSpec) (sweep.JobSpec, string, *workload.Benchmark, error) {
	var norm sweep.JobSpec
	var hash string
	var err, herr error
	r.tr.timed(op, parent, "spec.normalize", func() { norm, err = spec.Normalize() })
	r.tr.timed(op, parent, "spec.hash", func() { hash, herr = spec.Hash() })
	if err == nil {
		err = herr
	}
	if err != nil {
		return norm, hash, nil, err
	}
	var b *workload.Benchmark
	r.tr.timed(op, parent, "workload.byname", func() { b = workload.ByName(norm.Benchmark) })
	r.tr.timed(op, parent, "cache.lookup", func() { _, _ = r.svc.Cached(hash) })
	return norm, hash, b, nil
}

// compile replays experiment.Compile one child call at a time.
func (r *replayer) compile(op, parent int64, b *workload.Benchmark, norm sweep.JobSpec, opts experiment.Options) (*isa.Program, *regalloc.Result, error) {
	sp := r.tr.begin(op, parent, "experiment.compile")
	defer r.tr.end(sp)
	r.tr.timed(op, sp.ID, "trace.profile", func() {
		trace.Profile(b.Program, b.NewDriver(opts.Seed), opts.ProfileInstructions)
	})
	part, err := experiment.SchedulerByName(norm.Scheduler, norm.Window)
	if err != nil {
		return nil, nil, err
	}
	var pr *partition.Result
	if part != nil {
		r.tr.timed(op, sp.ID, "partition.partition", func() { pr = part.Partition(b.Program) })
		if err := pr.Validate(b.Program); err != nil {
			return nil, nil, err
		}
	}
	var alloc *regalloc.Result
	r.tr.timed(op, sp.ID, "regalloc.allocate", func() {
		alloc, err = regalloc.Allocate(b.Program, pr, regalloc.Config{
			Assignment:        opts.Dual.Assignment,
			Clustered:         part != nil,
			OtherClusterSpill: true,
		})
	})
	if err != nil {
		return nil, nil, err
	}
	var mp *isa.Program
	r.tr.timed(op, sp.ID, "codegen.lower", func() { mp, err = codegen.Lower(alloc) })
	return mp, alloc, err
}

func (r *replayer) materialize(op, parent int64, mp *isa.Program, b *workload.Benchmark, opts experiment.Options) (*trace.Artifact, error) {
	var art *trace.Artifact
	var err error
	sp := r.tr.timed(op, parent, "trace.materialize", func() {
		art, err = trace.Materialize(mp, b.NewDriver(opts.Seed), opts.Instructions)
	})
	if err == nil {
		r.matInstrs += int64(art.Len())
		r.matTime += sp.dur()
	}
	return art, err
}

// memDelta runs fn and adds its allocations to the core accounting.
func (r *replayer) memDelta(fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	r.mallocs += after.Mallocs - before.Mallocs
	r.bytes += after.TotalAlloc - before.TotalAlloc
}

// cell replays one solo cell and compares its stats with the API's.
func (r *replayer) cell(c coldCell) error {
	root := r.tr.begin(c.op, -1, "replay.cell")
	defer r.tr.end(root)
	r.cells++
	r.groups++
	norm, hash, b, err := r.front(c.op, root.ID, c.spec)
	if err != nil {
		return err
	}
	cfg, opts, err := norm.Resolve()
	if err != nil {
		return err
	}
	mp, alloc, err := r.compile(c.op, root.ID, b, norm, opts)
	if err != nil {
		return err
	}
	art, err := r.materialize(c.op, root.ID, mp, b, opts)
	if err != nil {
		return err
	}
	var stats core.Stats
	var sp *span
	r.memDelta(func() {
		sp = r.tr.timed(c.op, root.ID, "core.run", func() {
			var p *core.Processor
			if p, err = core.New(cfg, art.NewReader()); err == nil {
				stats, err = p.Run()
			}
		})
	})
	if err != nil {
		return err
	}
	r.soloInstrs += stats.Instructions
	r.soloTime += sp.dur()
	snap := stats.Snapshot()
	if err := sameStats(c.result, snap); err != nil {
		r.mismatch("cell %d (%s): %v", c.op, c.spec, err)
	}
	res := &sweep.Result{Spec: norm, Hash: hash, Stats: snap, Spilled: alloc.Spilled, Demoted: alloc.Demoted}
	r.tr.timed(c.op, root.ID, "journal.append", func() { err = r.journal.Append(res) })
	return err
}

// sweep replays one sweep group by group, the way the service batches it.
func (r *replayer) sweep(s sweepRun) error {
	specs, err := s.grid.Expand()
	if err != nil {
		return err
	}
	type group struct {
		members []int
	}
	var order []string
	groups := map[string]*group{}
	for i, spec := range specs {
		_, opts, err := spec.Resolve()
		if err != nil {
			return err
		}
		key := experiment.BatchGroupKey(spec.Benchmark, spec.Scheduler, opts)
		if groups[key] == nil {
			groups[key] = &group{}
			order = append(order, key)
		}
		groups[key].members = append(groups[key].members, i)
	}
	for _, key := range order {
		if err := r.group(s, specs, groups[key].members); err != nil {
			return err
		}
	}
	return nil
}

func (r *replayer) group(s sweepRun, specs []sweep.JobSpec, members []int) error {
	root := r.tr.begin(s.op, -1, "replay.group")
	defer r.tr.end(root)
	r.cells += len(members)
	r.groups++
	var norms []sweep.JobSpec
	var hashes []string
	var b *workload.Benchmark
	for _, i := range members {
		norm, hash, bb, err := r.front(s.op, root.ID, specs[i])
		if err != nil {
			return err
		}
		norms, hashes, b = append(norms, norm), append(hashes, hash), bb
	}
	cfgs := make([]core.Config, len(members))
	var opts experiment.Options
	for k, norm := range norms {
		var err error
		if cfgs[k], opts, err = norm.Resolve(); err != nil {
			return err
		}
	}
	mp, alloc, err := r.compile(s.op, root.ID, b, norms[0], opts)
	if err != nil {
		return err
	}
	art, err := r.materialize(s.op, root.ID, mp, b, opts)
	if err != nil {
		return err
	}
	var stats []core.Stats
	var sp *span
	r.memDelta(func() {
		sp = r.tr.timed(s.op, root.ID, "core.runbatch", func() { stats, err = core.RunBatch(cfgs, art) })
	})
	if err != nil {
		return err
	}
	for k, st := range stats {
		r.batchInstrs += st.Instructions
		snap := st.Snapshot()
		i := members[k]
		if err := sameStats(s.rows[i], snap); err != nil {
			r.mismatch("sweep %d row %d (%s): %v", s.op, i, specs[i], err)
		}
		res := &sweep.Result{Spec: norms[k], Hash: hashes[k], Stats: snap, Spilled: alloc.Spilled, Demoted: alloc.Demoted}
		r.tr.timed(s.op, root.ID, "journal.append", func() { err = r.journal.Append(res) })
		if err != nil {
			return err
		}
	}
	r.batchTime += sp.dur()
	return nil
}

// read replays the front half of a cache-hit submit.
func (r *replayer) read(op int64, spec sweep.JobSpec) error {
	root := r.tr.begin(op, -1, "replay.read")
	defer r.tr.end(root)
	_, _, _, err := r.front(op, root.ID, spec)
	return err
}
