package core

import (
	"fmt"

	"multicluster/internal/bpred"
	"multicluster/internal/cache"
	"multicluster/internal/isa"
	"multicluster/internal/trace"
)

// Processor is one configured machine instance. Create with New, run one
// trace with Run; a Processor is not reusable across runs and not safe for
// concurrent use.
type Processor struct {
	cfg    Config
	icache *cache.Cache
	dcache *cache.Cache
	pred   *bpred.Predictor

	// Per-cluster machine state. The rename table is a dense array indexed
	// directly by architectural register number (Reg values are 1..NumRegs;
	// entry 0 is RegNone and stays empty). It only ever names in-flight
	// producers: retire clears a producer's entries and squash unwinds them.
	queue    [2][]queueEntry
	rename   [2][isa.NumRegs + 1]ref
	freeRegs [2][2]int // [cluster][0 int, 1 fp]
	divFree  [2][]int64

	// home is cfg.Assignment decoded per register: the home cluster of a
	// local register, or -1 for a global one (rebuilt on reassignment).
	// classLimit is cfg.Rules' per-class issue limit.
	home       [isa.NumRegs + 1]int8
	classLimit [isa.NumClasses]int

	// Transfer-buffer occupancy, maintained incrementally: doIssue adds
	// entries as they are claimed, and bufEvents (a min-heap of release
	// times) returns them at the cycle the old per-cycle recomputation
	// would first have stopped counting them. Squash frees held entries
	// eagerly; the opHeld/resHeld flags make each free happen exactly once.
	opBufUsed  [2]int
	resBufUsed [2]int
	bufEvents  []bufEvent

	// ring holds every in-flight instruction by value; the active list
	// (fetch order) is the window [head, tail) of positions, and mask maps
	// a position to its slot (see ring.go).
	ring       []dynInst
	mask       handle
	head, tail handle
	// ready is the scoreboard, parallel to ring: ready[c][slot] is when the
	// instruction's destination value becomes readable by consumers in
	// cluster c (never until its producing copy issues). It is kept apart
	// from the instructions so the issue scan's operand checks stay within
	// a few cache lines.
	ready [2][]int64
	// parked holds each cluster's queue entries waiting on an unissued
	// producer (see wakeup.go); they count toward the queue's occupancy.
	parked [2]parking
	// unissued is the position of the oldest instruction with an unissued
	// copy, advanced lazily (everything before it is fully issued). It
	// never falls behind head; squash truncation preserves it.
	unissued  handle
	pendingBr []seqRef

	reader      trace.Reader
	pending     fetchItem
	havePending bool
	refetch     fetchRing
	traceDone   bool

	// linesTouched is fetch's per-cycle scratch for icache lines already
	// accessed this cycle, kept across cycles to avoid reallocation.
	linesTouched []uint64

	nextSeq      int64
	maxIssuedSeq int64
	cycle        int64

	fetchStallUntil    int64
	fetchStallIsReplay bool

	lastProgress int64

	// reassigns holds the not-yet-applied dynamic-reassignment hints.
	reassigns []Reassignment

	// lastStore maps a word-aligned address to the youngest in-flight store
	// to it, for store→load dependence tracking.
	lastStore storeTable

	// Buffer-deadlock detection: the sequence number of the oldest
	// instruction with an unissued copy, whether it was blocked purely by
	// transfer-buffer space this cycle, and for how many consecutive
	// cycles that has held.
	oldestUnissuedSeq int64
	bufBlockedNow     bool
	bufBlockedSeq     int64
	bufBlockedRun     int

	stats Stats

	// observe, when set, is called for every retired instruction; used by
	// white-box timing tests and by the pipeline-diagram tooling, with the
	// instruction's handle (its scoreboard entry stays readable during the
	// call). The slot is reused once the instruction leaves the window, so
	// an observer that keeps it must copy it.
	observe func(handle, *dynInst)

	// probes, when set via SetProbes, receives per-cycle occupancy samples
	// (see probes.go). Nil-checked once per cycle so the disabled cost is a
	// pointer compare.
	probes *Probes
}

// New builds a processor for cfg reading dynamic instructions from r.
func New(cfg Config, r trace.Reader) (*Processor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Processor{
		cfg:          cfg,
		icache:       cache.MustNew(cfg.ICache),
		dcache:       cache.MustNew(cfg.DCache),
		pred:         bpred.New(cfg.Predictor),
		reader:       r,
		maxIssuedSeq: -1,
	}
	p.reassigns = append(p.reassigns, cfg.Reassignments...)
	if cfg.CollectProfile {
		p.stats.Profile = make(map[int]PCStat)
	}
	for c := 0; c < cfg.Clusters; c++ {
		p.queue[c] = make([]queueEntry, 0, cfg.QueueSize)
		p.divFree[c] = make([]int64, cfg.Rules.FPDiv)
		p.freeRegs[c][0] = cfg.IntRegs - p.backedRegs(c, false)
		p.freeRegs[c][1] = cfg.FPRegs - p.backedRegs(c, true)
		if p.freeRegs[c][0] <= 0 || p.freeRegs[c][1] <= 0 {
			return nil, fmt.Errorf("core: cluster %d has no free physical registers after backing the architectural state", c)
		}
	}
	p.decodeAssignment()
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		p.classLimit[c] = cfg.Rules.ClassLimit(c)
	}
	p.newRing(p.ringSize())
	if !cfg.UnorderedMemory {
		p.lastStore.slots = make([]storeSlot, 2*len(p.ring))
	}
	return p, nil
}

// decodeAssignment rebuilds the per-register home table from
// cfg.Assignment.
func (p *Processor) decodeAssignment() {
	a := p.cfg.Assignment
	for r := isa.Reg(1); r <= isa.NumRegs; r++ {
		if a.IsGlobal(r) {
			p.home[r] = -1
		} else {
			p.home[r] = int8(a.Home(r))
		}
	}
}

// backedRegs counts the architectural registers whose committed values a
// cluster must hold in physical registers: its locals plus the globals
// (zero registers are hardwired, not renamed).
func (p *Processor) backedRegs(c int, fp bool) int {
	if p.cfg.Clusters == 1 {
		if fp {
			return isa.NumFPRegs - 1 // f31 is hardwired zero
		}
		return isa.NumIntRegs - 1
	}
	n := len(p.cfg.Assignment.LocalRegs(c, fp))
	for _, g := range p.cfg.Assignment.Globals() {
		if g.IsFP() == fp && !g.IsZero() {
			n++
		}
	}
	return n
}

// Run simulates until the trace is exhausted and the machine drains, or
// until MaxCycles. It returns the accumulated statistics.
func (p *Processor) Run() (Stats, error) {
	maxCycles := p.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = int64(1) << 62
	}
	p.stats.Stop = StopTraceEnd
	for {
		if p.drained() {
			break
		}
		if p.cycle >= maxCycles {
			p.stats.Stop = StopMaxCycles
			break
		}
		if err := p.step(); err != nil {
			return p.stats, err
		}
	}
	p.stats.Cycles = p.cycle
	p.stats.ICache = p.icache.Stats()
	p.stats.DCache = p.dcache.Stats()
	p.stats.Predictor = p.pred.Stats()
	return p.stats, nil
}

func (p *Processor) drained() bool {
	return p.traceDone && !p.havePending && p.refetch.len() == 0 && p.head == p.tail
}

// oldestUnissued advances the unissued cursor past fully-issued
// instructions and returns the oldest one with an unissued copy, or nil.
// The active list is in sequence order, so the cursor only moves forward
// between retire pops.
func (p *Processor) oldestUnissued() *dynInst {
	for p.unissued != p.tail && p.inst(p.unissued).allIssued() {
		p.unissued++
	}
	if p.unissued != p.tail {
		return p.inst(p.unissued)
	}
	return nil
}

// youngestBlocked reports whether the oldest unissued instruction is also
// the youngest in flight (the active list is in sequence order).
func (p *Processor) youngestBlocked() bool {
	return p.head == p.tail || p.inst(p.tail-1).seq <= p.oldestUnissuedSeq
}

// queueLen returns cluster c's dispatch-queue occupancy.
func (p *Processor) queueLen(c int) int { return len(p.queue[c]) + p.parked[c].n }

// step advances the machine one cycle: resolve branches, release expired
// transfer-buffer entries, retire, issue, fetch/distribute, then check the
// replay watchdog.
func (p *Processor) step() error {
	t := p.cycle
	progress := false

	p.resolveBranches(t)
	p.releaseBufferEntries(t)

	p.oldestUnissuedSeq = -1
	if d := p.oldestUnissued(); d != nil {
		p.oldestUnissuedSeq = d.seq
	}
	p.bufBlockedNow = false

	if p.retire(t) {
		progress = true
	}
	for c := 0; c < p.cfg.Clusters; c++ {
		if p.issueCluster(c, t) {
			progress = true
		}
		p.stats.Cluster[c].QueueOccupancySum += int64(p.queueLen(c))
	}
	// Sample occupancy here — the same post-issue, pre-fetch point the
	// QueueOccupancySum stat accumulates at — so the probed distribution
	// integrates to exactly the pinned mean.
	if p.probes != nil {
		p.probeCycle(t)
	}
	if p.fetch(t) {
		progress = true
	}

	// Precise replay trigger: the oldest unissued instruction has been
	// blocked purely by transfer-buffer space for several consecutive
	// cycles. The entries it needs are necessarily held by younger
	// instructions, so this cannot resolve on its own (§2.1).
	if p.bufBlockedNow && p.oldestUnissuedSeq == p.bufBlockedSeq {
		p.bufBlockedRun++
	} else if p.bufBlockedNow {
		p.bufBlockedSeq = p.oldestUnissuedSeq
		p.bufBlockedRun = 1
	} else {
		p.bufBlockedRun = 0
	}

	switch {
	case p.bufBlockedRun >= bufferBlockCycles && !p.youngestBlocked():
		if err := p.replay(t); err != nil {
			return err
		}
		p.bufBlockedRun = 0
		p.lastProgress = t
	case p.bufBlockedRun >= bufferBlockCycles:
		// The blocked instruction is the youngest in flight, so the buffer
		// entries it needs are held by *older* instructions — a bounded
		// transient that drains as they complete, not the §2.1 deadlock
		// (which needs younger holders). Squashing could not help; keep
		// waiting and let the generic watchdog catch real deadlocks.
		p.bufBlockedRun = 0
	case progress:
		p.lastProgress = t
	case p.head != p.tail && t-p.lastProgress >= int64(p.cfg.ReplayWatchdog):
		if err := p.replay(t); err != nil {
			return err
		}
		p.lastProgress = t
	}
	p.cycle++
	return nil
}

// resolveBranches trains the predictor at branch execution time and prunes
// settled entries. Mispredicted branches block fetch until one cycle after
// resolution (the machine would have been fetching the wrong path). A
// branch resolves no later than the cycle it retires and is pruned the
// cycle after, so an entry whose slot has been reused was already settled;
// replay drops squashed entries before their slots can be reused.
func (p *Processor) resolveBranches(t int64) {
	kept := p.pendingBr[:0]
	for _, r := range p.pendingBr {
		b := p.lookup(r)
		if b == nil {
			continue
		}
		if !b.resolved && b.mu.issued && b.resultCycle <= t {
			b.resolved = true
			p.pred.Update(b.snap, b.taken)
			if b.mispredicted {
				p.stats.Mispredicts++
				p.stats.MispredResolveSum += b.resultCycle - b.mu.distributedAt
			}
		}
		if b.resolved && b.resultCycle+1 <= t {
			continue // settled; fetch no longer blocked by it
		}
		kept = append(kept, r)
	}
	p.pendingBr = kept
}

// fetchBlockedByBranch reports whether an in-flight mispredicted branch
// still gates fetch at cycle t.
func (p *Processor) fetchBlockedByBranch(t int64) bool {
	for _, r := range p.pendingBr {
		if b := p.lookup(r); b != nil && b.mispredicted && (!b.resolved || b.resultCycle+1 > t) {
			return true
		}
	}
	return false
}

// bufEvent schedules the return of one instruction's transfer-buffer
// claim: its operand entries (op) or its result entry (!op) stop counting
// against occupancy from cycle `when` on. Events fire no later than the
// instruction's retire cycle, before retirement; one whose instruction was
// squashed finds either the held flags cleared or the slot reused.
type bufEvent struct {
	when int64
	inst seqRef
	op   bool
}

// pushBufEvent schedules a release on the min-heap.
func (p *Processor) pushBufEvent(when int64, inst seqRef, op bool) {
	h := append(p.bufEvents, bufEvent{when, inst, op})
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].when <= h[i].when {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	p.bufEvents = h
}

// releaseBufferEntries frees every transfer-buffer claim whose release
// time has arrived, at the start of cycle t. Claims already freed by a
// squash are skipped via the held flags. Operand entries are occupied
// from slave issue through master issue inclusive (released the cycle
// after the master reads them); result entries from master issue through
// the consuming slave's issue (scenarios 3/4) or through the result's
// arrival (scenario 5, the suspended slave).
func (p *Processor) releaseBufferEntries(t int64) {
	h := p.bufEvents
	for len(h) > 0 && h[0].when <= t {
		e := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			l := 2*i + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && h[r].when < h[l].when {
				l = r
			}
			if h[i].when <= h[l].when {
				break
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
		if d := p.lookup(e.inst); d != nil {
			p.releaseHeld(d, e.op)
		}
	}
	p.bufEvents = h
}

// releaseHeld returns one instruction's operand or result buffer claim,
// exactly once.
func (p *Processor) releaseHeld(d *dynInst, op bool) {
	if op {
		if d.opHeld {
			p.opBufUsed[d.mu.cluster] -= int(d.mu.fwdOperands)
			d.opHeld = false
		}
	} else if d.resHeld {
		p.resBufUsed[d.su.cluster]--
		d.resHeld = false
	}
}

// retire commits completed instructions in program order, up to
// RetireWidth per cycle, releasing the physical registers of their
// destinations and dropping the rename and store-table entries that still
// name them.
func (p *Processor) retire(t int64) bool {
	n := 0
	for n < p.cfg.RetireWidth && p.head != p.tail {
		h := p.head
		d := p.inst(h)
		if !d.retireReady(t) {
			break
		}
		p.head++
		if p.unissued == h {
			p.unissued = p.head
		}
		p.forgetStore(h, d)
		if d.destReg != isa.RegNone {
			fp := bIdx(d.destReg.IsFP())
			for c := 0; c < p.cfg.Clusters; c++ {
				if d.renamed[c] {
					p.freeRegs[c][fp]++
					if r := &p.rename[c][d.destReg]; r.ok && r.h == h {
						r.ok = false
					}
				}
			}
		}
		p.stats.Instructions++
		if d.isCondBr {
			p.stats.CondBranches++
		}
		if p.stats.Profile != nil {
			pc := p.stats.Profile[d.idx]
			pc.Count++
			pc.IssueDelaySum += d.mu.issueCycle - d.mu.distributedAt
			if d.dual {
				pc.DualCount++
			}
			if d.isCondBr && d.mispredicted {
				pc.Mispredicts++
			}
			p.stats.Profile[d.idx] = pc
		}
		if p.observe != nil {
			p.observe(h, d)
		}
		n++
	}
	return n > 0
}
