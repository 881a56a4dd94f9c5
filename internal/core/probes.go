package core

// This file is the core's observability seam: an optional, nil-checked
// probe hook that surfaces per-cycle occupancy without touching the Stats
// the golden fixtures pin. Occupancy is all it reports, because
// Stats.Fetch, Replays/ReplayedInstructions and SingleDist/DualDist
// already count stall, replay and distribution events exactly. With no
// probes installed the only cost is one nil check per cycle — the
// simulated machine state, the statistics, and the cycle-by-cycle
// behaviour are bit-for-bit identical, which `make bench` and the golden
// suite enforce.

// StallCause classifies a cycle in which fetch could make no progress,
// naming the FetchStalls counters (§4's stall taxonomy: the front end
// is blocked by the memory system, the branch unit, or a full
// queue/register structure, or is paying a replay restart penalty).
type StallCause uint8

const (
	// StallICacheMiss: fetch is waiting on an instruction-cache fill.
	StallICacheMiss StallCause = iota
	// StallMispredict: fetch is blocked behind an unresolved mispredicted
	// branch.
	StallMispredict
	// StallQueueFull: a dispatch queue has no room for the next
	// instruction's copies.
	StallQueueFull
	// StallRegsFull: no free physical register where the destination must
	// be allocated.
	StallRegsFull
	// StallReplay: the restart penalty of an instruction-replay exception.
	StallReplay
	// NumStallCauses is the number of StallCause values.
	NumStallCauses
)

func (c StallCause) String() string {
	switch c {
	case StallICacheMiss:
		return "icache_miss"
	case StallMispredict:
		return "mispredict"
	case StallQueueFull:
		return "queue_full"
	case StallRegsFull:
		return "regs_full"
	case StallReplay:
		return "replay"
	}
	return "unknown"
}

// CycleSample is the machine-occupancy snapshot handed to Probes.Cycle
// once per simulated cycle: dispatch-queue and transfer-buffer occupancy
// per cluster, plus the active-window depth. It is taken after issue and
// before fetch — the same point the Stats queue-occupancy sums accumulate
// at, so the sampled distribution integrates to the reported mean.
type CycleSample struct {
	Cycle      int64
	Queue      [2]int
	OperandBuf [2]int
	ResultBuf  [2]int
	Active     int
}

// Probes is the optional observability hook set. Cycle may be nil; a nil
// Cycle (or a nil *Probes) costs one pointer check per cycle. Probes
// observe — they must not mutate machine state, and they run
// synchronously on the simulation goroutine, so a probe that writes
// state shared with other goroutines pays for it every cycle.
type Probes struct {
	// Cycle is called once at the end of every simulated cycle.
	Cycle func(CycleSample)
}

// SetProbes installs (or, with nil, removes) the probe hooks. Call before
// Run; probes are not part of Config so they never perturb the
// content-addressed run keys of the experiment cache.
func (p *Processor) SetProbes(pr *Probes) { p.probes = pr }

// probeCycle reports the end-of-cycle occupancy sample.
func (p *Processor) probeCycle(t int64) {
	if p.probes == nil || p.probes.Cycle == nil {
		return
	}
	s := CycleSample{
		Cycle:      t,
		OperandBuf: p.opBufUsed,
		ResultBuf:  p.resBufUsed,
		Active:     p.activeLen(),
	}
	for c := 0; c < p.cfg.Clusters; c++ {
		s.Queue[c] = p.queueLen(c)
	}
	p.probes.Cycle(s)
}
