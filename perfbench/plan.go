package main

import (
	"math/rand"
	"time"

	"multicluster/internal/sweep"
)

// The operation plan of a run is a pure function of the workload seed:
// which specs are submitted, which simulation seeds they carry, and (for
// the open loop) when each request is due. The program under test only
// ever sees the generated requests.

// benchmarks and the machine/scheduler axes the cold workloads rotate over.
var (
	benchmarks  = []string{"compress", "doduc", "gcc1", "ora", "su2cor", "tomcatv"}
	soloMachine = []string{"single", "dual"}
	schedulers  = []string{"none", "local"}
	allMachines = []string{"single", "dual", "single4", "dual2"}
)

// cellInstrs is the dynamic budget of every cold cell.
const cellInstrs = 100_000

// simSeedBase keeps generated simulation seeds far from the small seeds
// (42, 1..100) that tests, goldens and the older benches use.
const simSeedBase = int64(1) << 40

// simSeed derives the k-th simulation seed of a stream from the workload
// seed with a splitmix64 step, so every cold operation gets a seed no
// earlier operation used.
func simSeed(seed int64, stream, k int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(k) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return simSeedBase + int64(z%(1<<40))
}

// Seed streams, one per kind of generated simulation seed.
const (
	streamSolo = iota
	streamSweep
	streamWarm
)

// soloRotation is the number of distinct benchmark × machine × scheduler
// combinations solo-cells rotates over.
var soloRotation = len(benchmarks) * len(soloMachine) * len(schedulers)

// soloSpec is the k-th cell of the solo-cells plan: the rotation over
// benchmark × {single, dual} × {none, local}, each cell at a fresh seed.
func soloSpec(seed int64, k int) sweep.JobSpec {
	i := k % soloRotation
	return sweep.JobSpec{
		Benchmark:    benchmarks[i/(len(soloMachine)*len(schedulers))],
		Machine:      soloMachine[(i/len(schedulers))%len(soloMachine)],
		Scheduler:    schedulers[i%len(schedulers)],
		Seed:         simSeed(seed, streamSolo, k),
		Instructions: cellInstrs,
	}
}

// sweepRotation is the number of sweeps it takes sweep-grid to cover the
// six benchmarks once.
var sweepRotation = len(benchmarks) / 2

// sweepGrid is the k-th sweep of the sweep-grid plan: a pair of benchmarks
// (rotating over the six in three disjoint pairs) × all four machines ×
// {none, local}, 16 cells in four batch groups, at a fresh seed.
func sweepGrid(seed int64, k int) sweep.Grid {
	i := 2 * (k % sweepRotation)
	return sweep.Grid{
		Benchmarks:   []string{benchmarks[i], benchmarks[i+1]},
		Machines:     allMachines,
		Schedulers:   schedulers,
		Seeds:        []int64{simSeed(seed, streamSweep, k)},
		Instructions: cellInstrs,
	}
}

// readKind is one request type of the hot-reads mix.
type readKind int

const (
	readSubmit readKind = iota // cache-hit POST /v1/jobs
	readJob                    // GET /v1/jobs/{id} of an earlier submit
	readTable2                 // GET /v1/table2 at a small n
	readCursor                 // GET /v1/sweeps/{id}/results?cursor=c&limit=l
	numReadKinds
)

func (k readKind) String() string {
	return [...]string{"submit", "job", "table2", "cursor"}[k]
}

// readMix is the share of each read kind, in readKind order.
var readMix = [numReadKinds]float64{0.42, 0.42, 0.02, 0.14}

// jobLag bounds how many submits back a job read looks: the job it polls
// was submitted a while ago, so it is finished and still retained.
const jobLag = 16

// readOp is one scheduled request of the open loop.
type readOp struct {
	at   time.Duration // due time from the start of its step
	kind readKind
	// spec is the warm spec a readSubmit posts.
	spec int
	// lag is how many submits before the latest completed one a readJob
	// polls.
	lag int
	// cursor and limit of a readCursor.
	cursor, limit int
}

// warmSpecs is how many distinct specs set-up computes for cache-hit
// submits.
const warmSpecs = 8

// warmInstrs is the budget of the specs set-up computes for hot-reads.
const warmInstrs = 20_000

// warmSpec is the j-th spec hot-reads keeps hitting.
func warmSpec(seed int64, j int) sweep.JobSpec {
	i := j % soloRotation
	return sweep.JobSpec{
		Benchmark:    benchmarks[i%len(benchmarks)],
		Machine:      soloMachine[(i/len(benchmarks))%len(soloMachine)],
		Scheduler:    schedulers[(i/(len(benchmarks)*len(soloMachine)))%len(schedulers)],
		Seed:         simSeed(seed, streamWarm, j),
		Instructions: warmInstrs,
	}
}

// warmGrid is the sweep set-up finishes for cursor reads.
func warmGrid(seed int64) sweep.Grid {
	return sweep.Grid{
		Benchmarks:   []string{"compress", "tomcatv"},
		Machines:     soloMachine,
		Schedulers:   schedulers,
		Seeds:        []int64{simSeed(seed, streamWarm, 63)},
		Instructions: warmInstrs,
	}
}

// warmTable2Seed is the seed of the Table 2 set-up computes.
func warmTable2Seed(seed int64) int64 { return simSeed(seed, streamWarm, 62) }

// table2Instrs is the small n of the Table 2 reads.
const table2Instrs = 20_000

// warmGridCells is the number of rows of warmGrid.
const warmGridCells = 8

// readPlan generates the requests of one open-loop step: Poisson arrivals
// at rate per second for dur, the kinds drawn from readMix. submits counts
// the submits of earlier steps, so job reads can refer back across steps.
func readPlan(rng *rand.Rand, rate float64, dur time.Duration, submits int) []readOp {
	var ops []readOp
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return ops
		}
		op := drawOp(rng, submits)
		op.at = at
		if op.kind == readSubmit {
			submits++
		}
		ops = append(ops, op)
	}
}

// drawOp draws one request of the mix; submits is the number of submits
// drawn before it.
func drawOp(rng *rand.Rand, submits int) readOp {
	op := readOp{kind: drawKind(rng)}
	if op.kind == readJob && submits < jobLag {
		op.kind = readSubmit
	}
	switch op.kind {
	case readSubmit:
		op.spec = rng.Intn(warmSpecs)
	case readJob:
		op.lag = jobLag/2 + rng.Intn(jobLag/2)
	case readCursor:
		op.cursor = rng.Intn(warmGridCells)
		op.limit = 1 + rng.Intn(warmGridCells-op.cursor)
	}
	return op
}

func drawKind(rng *rand.Rand) readKind {
	u := rng.Float64()
	for k, share := range readMix {
		if u < share {
			return readKind(k)
		}
		u -= share
	}
	return readSubmit
}

// plan is everything a run generates from its seed: the simulation seeds
// of the cold workloads (through soloSpec and sweepGrid) and the open-loop
// steps of hot-reads, the base rate first, then the ladder.
type plan struct {
	seed  int64
	reads []readStep
}

// readStep is one fixed-rate step of the open loop.
type readStep struct {
	rate float64
	dur  time.Duration
	ops  []readOp
}

// newPlan generates the plan of a run of the given length.
func newPlan(seed int64, seconds float64) plan {
	rng := rand.New(rand.NewSource(seed))
	p := plan{seed: seed}
	base := time.Duration(seconds * baseShare * float64(time.Second))
	step := time.Duration(seconds * stepShare * float64(time.Second))
	submits := 0
	for i, rate := range append([]float64{baseRate}, ladder...) {
		dur := step
		if i == 0 {
			dur = base
		}
		ops := readPlan(rng, rate, dur, submits)
		for _, op := range ops {
			if op.kind == readSubmit {
				submits++
			}
		}
		p.reads = append(p.reads, readStep{rate: rate, dur: dur, ops: ops})
	}
	return p
}

// The open-loop ladder: the base rate at which read latency is reported,
// then the rates tried for the highest one meeting the latency limit.
var (
	baseRate = 300.0
	ladder   = []float64{600, 750, 940, 1170, 1460, 1830, 2290, 2860, 3580, 4470}
)

// baseShare and stepShare split the run's seconds between the base-rate
// step and each ladder step.
const (
	baseShare = 0.4
	stepShare = 0.1
)
