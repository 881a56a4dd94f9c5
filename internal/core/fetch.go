package core

import (
	"fmt"

	"multicluster/internal/isa"
)

// fetch runs the fetch/distribute stage for cycle t: up to FetchWidth
// instructions are pulled (refetch queue first, then the trace), checked
// against the instruction cache, and distributed to dispatch queues in
// fetch order. Fetch stops at the first taken control flow, the first
// mispredicted branch, an instruction-cache miss, or a structural stall
// (queue or register file full), whichever comes first.
func (p *Processor) fetch(t int64) bool {
	if t < p.fetchStallUntil {
		if p.fetchStallIsReplay {
			p.stats.Fetch.Replay++
		} else {
			p.stats.Fetch.ICacheMiss++
		}
		return false
	}
	if p.fetchBlockedByBranch(t) {
		p.stats.Fetch.Mispredict++
		return false
	}

	fetched := 0
	lineMask := uint64(p.icache.LineSize() - 1)
	linesTouched := p.linesTouched[:0]
	for fetched < p.cfg.FetchWidth {
		item := p.peekItem()
		if item == nil {
			break
		}
		// Dynamic reassignment hint: serialize, migrate, switch.
		if len(p.reassigns) > 0 {
			if r, ok := p.pendingReassign(item.idx); ok {
				if p.head != p.tail || fetched > 0 {
					p.stats.Reassign.DrainCycles++
					break // drain before switching
				}
				p.fetchStallUntil = p.applyReassign(r, t)
				p.fetchStallIsReplay = false
				break
			}
		}
		// Instruction-cache access, once per line per cycle.
		pc := isa.PCOf(item.idx)
		line := pc &^ lineMask
		touched := false
		for _, l := range linesTouched {
			if l == line {
				touched = true
				break
			}
		}
		if !touched {
			if extra := p.icache.Access(pc, t); extra > 0 {
				p.fetchStallUntil = t + int64(extra)
				p.fetchStallIsReplay = false
				if fetched == 0 {
					p.stats.Fetch.ICacheMiss++
				}
				break
			}
			linesTouched = append(linesTouched, line)
		}

		pl := p.plan(item.in)
		ok, queueFull, regsFull := p.canDistribute(item.in, pl)
		if !ok {
			if fetched == 0 {
				if queueFull {
					p.stats.Fetch.QueueFull++
				} else if regsFull {
					p.stats.Fetch.RegsFull++
				}
			}
			break
		}

		d := p.distribute(*item, pl, t)
		p.consumeItem()
		fetched++

		// Fetch discontinuities end the cycle's fetch group; a mispredicted
		// conditional branch blocks fetch entirely until it resolves (the
		// machine would be fetching the wrong path).
		if d.isCondBr && d.mispredicted {
			break
		}
		if item.in.Op.IsControl() && item.taken {
			break
		}
	}
	p.linesTouched = linesTouched
	return fetched > 0
}

// peekItem returns the next instruction to distribute without consuming it:
// replayed instructions first, then the trace. The returned pointer is into
// the processor's pending slot, valid until the next peek.
func (p *Processor) peekItem() *fetchItem {
	if p.havePending {
		return &p.pending
	}
	if p.refetch.len() > 0 {
		p.pending = p.refetch.pop()
		p.havePending = true
		return &p.pending
	}
	if p.traceDone {
		return nil
	}
	e, ok := p.reader.Next()
	if !ok {
		p.traceDone = true
		return nil
	}
	p.pending = fetchItem{idx: e.Index, in: e.Instr, addr: e.Addr, taken: e.Taken}
	p.havePending = true
	return &p.pending
}

func (p *Processor) consumeItem() { p.havePending = false }

// replay raises an instruction-replay exception (§2.1): the oldest
// instruction with an unissued copy is blocked — in a correctly-sized
// machine this can only persist when transfer-buffer entries are held by
// younger instructions — so every younger instruction is squashed,
// releasing their queue entries, physical registers, and buffer entries,
// and is refetched after a short restart penalty.
func (p *Processor) replay(t int64) error {
	oldest := p.oldestUnissued()
	if oldest == nil {
		return errDeadlock(p, t, "no unissued instruction")
	}
	// Squash everything younger than the blocked instruction (the active
	// list is in sequence order, so that is everything past the cursor).
	cut := p.unissued + 1
	if cut == p.tail {
		return errDeadlock(p, t, "blocked instruction has no younger instructions to squash")
	}
	victims := int(p.tail - cut)

	// The victims are refetched in program order, ahead of any
	// not-yet-fetched pending instruction and the rest of the refetch
	// queue: push that first, then each victim in front of it.
	p.refetch.reserve(victims + 1)
	if p.havePending {
		p.refetch.pushFront(p.pending)
		p.havePending = false
	}
	// Undo youngest-first so rename tables unwind correctly. A previous
	// producer that has retired since leaves the register architectural.
	for h := p.tail - 1; h != cut-1; h-- {
		d := p.inst(h)
		if d.destReg != isa.RegNone {
			fp := bIdx(d.destReg.IsFP())
			for c := 0; c < p.cfg.Clusters; c++ {
				if d.renamed[c] {
					prev := d.prevProd[c]
					prev.ok = prev.ok && !p.retiredH(prev.h)
					p.rename[c][d.destReg] = prev
					p.freeRegs[c][fp]++
				}
			}
		}
		// Return any transfer-buffer entries the victim still holds.
		p.releaseHeld(d, true)
		p.releaseHeld(d, false)
		p.forgetStore(h, d)
		p.refetch.pushFront(fetchItem{idx: d.idx, in: d.in, addr: d.addr, taken: d.taken})
		p.stats.ReplayedInstructions++
	}
	// Drop the victims' dispatch-queue entries and pending branches (those
	// at or past the cut) before their positions are reused. Stale buffer
	// release events are ignored by the held flags or the sequence check
	// when they fire.
	past := func(h handle) bool { return int32(h-cut) >= 0 }
	p.unparkAll()
	for c := 0; c < p.cfg.Clusters; c++ {
		kept := p.queue[c][:0]
		for _, e := range p.queue[c] {
			if !past(e.h) {
				kept = append(kept, e)
			}
		}
		p.queue[c] = kept
	}
	kept := p.pendingBr[:0]
	for _, r := range p.pendingBr {
		if !past(r.h) {
			kept = append(kept, r)
		}
	}
	p.pendingBr = kept
	p.tail = cut

	p.fetchStallUntil = t + int64(p.cfg.ReplayPenalty)
	p.fetchStallIsReplay = true
	p.stats.Replays++
	return nil
}

func errDeadlock(p *Processor, t int64, why string) error {
	return &DeadlockError{Cycle: t, InFlight: p.activeLen(), Why: why}
}

// DeadlockError reports a machine state the replay mechanism cannot
// recover, which indicates a modelling bug rather than a workload property.
type DeadlockError struct {
	Cycle    int64
	InFlight int
	Why      string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("core: unrecoverable stall at cycle %d with %d in flight: %s", e.Cycle, e.InFlight, e.Why)
}
