package core

import "multicluster/internal/isa"

// fetchItem is one dynamic instruction waiting to be distributed: either
// fresh from the trace reader or re-queued by a replay exception.
type fetchItem struct {
	idx   int
	in    *isa.Instruction
	addr  uint64
	taken bool
}

// distPlan is the outcome of the distribution rules of §2.1 for one
// instruction: which cluster executes the computation (the master), whether
// a slave copy is needed, which operands the slave forwards, and where
// physical registers must be allocated. The source lists are fixed-size
// (an instruction has at most two sources) so planning never allocates.
type distPlan struct {
	dual     bool
	masterCl int

	// masterSrcs[:nMaster] / slaveSrcs[:nSlave] are the architectural
	// source registers each copy reads from its own cluster's register
	// file.
	masterSrcs [2]isa.Reg
	slaveSrcs  [2]isa.Reg
	nMaster    int
	nSlave     int

	sendsResult bool
	// allocIn[c] is true when a physical destination register must be
	// allocated in cluster c.
	allocIn [2]bool
}

// plan applies the register-driven distribution rules. For a single-cluster
// machine everything lands in cluster 0.
func (p *Processor) plan(in *isa.Instruction) distPlan {
	var pl distPlan
	// in.Sources() without the slice: RegNone and hardwired zero registers
	// never create dependences or cluster constraints.
	var srcs [2]isa.Reg
	nSrc := 0
	if r := in.Src1; r != isa.RegNone && !r.IsZero() {
		srcs[nSrc] = r
		nSrc++
	}
	if r := in.Src2; r != isa.RegNone && !r.IsZero() {
		srcs[nSrc] = r
		nSrc++
	}
	dest := in.Dest()

	if p.cfg.Clusters == 1 {
		pl.masterSrcs = srcs
		pl.nMaster = nSrc
		if dest != isa.RegNone {
			pl.allocIn[0] = true
		}
		return pl
	}

	var localCount [2]int
	for _, r := range srcs[:nSrc] {
		if h := p.home[r]; h >= 0 {
			localCount[h]++
		}
	}
	destHome := int8(-1) // global
	if dest != isa.RegNone {
		if destHome = p.home[dest]; destHome >= 0 {
			localCount[destHome]++
		}
	}
	pl.masterCl = p.pickMaster(srcs[:nSrc], localCount)

	other := 1 - pl.masterCl
	for _, r := range srcs[:nSrc] {
		if h := p.home[r]; h < 0 || int(h) == pl.masterCl {
			pl.masterSrcs[pl.nMaster] = r
			pl.nMaster++
		} else if pl.nSlave == 0 || pl.slaveSrcs[0] != r {
			// One transfer-buffer entry per distinct value: an instruction
			// naming the same remote register twice forwards it once.
			pl.slaveSrcs[pl.nSlave] = r
			pl.nSlave++
		}
	}
	switch {
	case dest == isa.RegNone:
	case destHome < 0:
		pl.allocIn[0], pl.allocIn[1] = true, true
		pl.sendsResult = true
	case int(destHome) == pl.masterCl:
		pl.allocIn[pl.masterCl] = true
	default:
		pl.allocIn[other] = true
		pl.sendsResult = true
	}
	pl.dual = pl.sendsResult || pl.nSlave > 0
	return pl
}

// pickMaster applies the configured master-selection policy.
func (p *Processor) pickMaster(srcs []isa.Reg, localCount [2]int) int {
	switch p.cfg.MasterSelect {
	case MasterFirstSource:
		for _, r := range srcs {
			if h := p.home[r]; h >= 0 {
				return int(h)
			}
		}
		return p.balancePick()
	case MasterAlternate:
		c := int(p.nextSeq & 1)
		return c
	default:
		switch {
		case localCount[0] > localCount[1]:
			return 0
		case localCount[1] > localCount[0]:
			return 1
		}
		return p.balancePick()
	}
}

// balancePick breaks master-selection ties toward the cluster with the
// lighter dispatch queue, then the fewer lifetime distributions, then 0.
func (p *Processor) balancePick() int {
	if q0, q1 := p.queueLen(0), p.queueLen(1); q0 != q1 {
		if q1 < q0 {
			return 1
		}
		return 0
	}
	if p.stats.Cluster[1].Distributed < p.stats.Cluster[0].Distributed {
		return 1
	}
	return 0
}

// canDistribute checks, without side effects, that every resource the plan
// needs is available: a dispatch-queue entry in each target cluster and a
// free physical register wherever the destination is allocated. It returns
// the stall reason when blocked.
func (p *Processor) canDistribute(in *isa.Instruction, pl distPlan) (ok bool, queueFull, regsFull bool) {
	need := [2]int{}
	need[pl.masterCl]++
	if pl.dual {
		need[1-pl.masterCl]++
	}
	for c := 0; c < p.cfg.Clusters; c++ {
		if need[c] > 0 && p.queueLen(c)+need[c] > p.cfg.QueueSize {
			return false, true, false
		}
	}
	if dest := in.Dest(); dest != isa.RegNone {
		fp := bIdx(dest.IsFP())
		for c := 0; c < p.cfg.Clusters; c++ {
			if pl.allocIn[c] && p.freeRegs[c][fp] < 1 {
				return false, false, true
			}
		}
	}
	return true, false, false
}

// distribute commits one instruction to the machine at cycle t: builds the
// dynamic instruction and its copies, renames the destination, allocates
// physical registers, inserts the copies into dispatch queues, and predicts
// conditional branches (footnote 2: prediction happens here, at insertion).
func (p *Processor) distribute(item fetchItem, pl distPlan, t int64) *dynInst {
	h, d := p.alloc()
	// Reset the reused slot in place (a composite-literal assignment would
	// build the whole instruction on the stack and copy it).
	*d = dynInst{}
	d.seq = p.nextSeq
	d.idx = item.idx
	d.in = item.in
	d.addr = item.addr
	d.taken = item.taken
	d.latency = int32(item.in.Op.Latency())
	d.dual = pl.dual
	d.masterCl = int8(pl.masterCl)
	d.resultCycle = never
	p.ready[0][h&p.mask], p.ready[1][h&p.mask] = never, never
	d.doneCycle = never
	d.destReg = item.in.Dest()
	d.copies = 1
	p.nextSeq++

	// resolve maps the planned source registers to their in-flight
	// producers in cluster cl (the rename table names only in-flight
	// instructions; committed values can never delay an issue).
	resolve := func(e *queueEntry, regs [2]isa.Reg, n, cl int) {
		for i := 0; i < n; i++ {
			if prod := p.rename[cl][regs[i]]; prod.ok {
				e.srcs[e.nSrcs] = prod.h
				e.nSrcs++
			}
		}
	}

	m := &d.mu
	m.cluster = int8(pl.masterCl)
	m.master = true
	m.fwdOperands = int8(pl.nSlave)
	m.sendsResult = pl.sendsResult
	m.slotClass = item.in.Op.Class()
	m.distributedAt = t
	me := queueEntry{h: h}
	resolve(&me, pl.masterSrcs, pl.nMaster, pl.masterCl)
	p.queue[pl.masterCl] = append(p.queue[pl.masterCl], me)
	p.stats.Cluster[pl.masterCl].Distributed++

	if pl.dual {
		other := 1 - pl.masterCl
		s := &d.su
		s.cluster = int8(other)
		s.opFwdSlave = pl.nSlave > 0
		s.recvsResult = pl.sendsResult
		s.slotClass = slaveSlotClass(item.in, pl)
		s.distributedAt = t
		se := queueEntry{h: h, slave: true}
		resolve(&se, pl.slaveSrcs, pl.nSlave, other)
		d.copies = 2
		p.queue[other] = append(p.queue[other], se)
		p.stats.Cluster[other].Distributed++
		p.stats.DualDist++
		if s.opFwdSlave {
			p.stats.OperandForwards++
		}
		if pl.sendsResult {
			p.stats.ResultForwards++
		}
	} else {
		p.stats.SingleDist++
	}

	// Rename the destination: record the previous producer for squash
	// recovery and claim a physical register wherever the value lives.
	if d.destReg != isa.RegNone {
		fp := bIdx(d.destReg.IsFP())
		for c := 0; c < p.cfg.Clusters; c++ {
			if pl.allocIn[c] {
				d.prevProd[c] = p.rename[c][d.destReg]
				p.rename[c][d.destReg] = ref{h: h, ok: true}
				d.renamed[c] = true
				p.freeRegs[c][fp]--
			}
		}
	}

	// Store→load ordering: loads wait on the youngest older in-flight store
	// to the same word; stores publish themselves.
	if p.lastStore.slots != nil {
		switch item.in.Op.Class() {
		case isa.ClassLoad:
			if st, ok := p.lastStore.get(item.addr &^ 7); ok {
				m.memDep = ref{h: st, ok: true}
			}
		case isa.ClassStore:
			p.lastStore.put(item.addr&^7, h)
		}
	}

	// Conditional branches are predicted at dispatch-queue insertion.
	if item.in.Op.IsCondBranch() {
		d.isCondBr = true
		d.snap = p.pred.Predict(isa.PCOf(item.idx))
		d.mispredicted = d.snap.Taken() != item.taken
		p.pendingBr = append(p.pendingBr, seqRef{seq: d.seq, h: h})
	}

	p.stats.Fetched++
	return d
}

// forgetStore drops the store-table entry of a store at h leaving the
// window (retired or squashed), if the entry still names it.
func (p *Processor) forgetStore(h handle, d *dynInst) {
	if p.lastStore.slots != nil && d.in.Op.Class() == isa.ClassStore {
		p.lastStore.remove(d.addr&^7, h)
	}
}

// slaveSlotClass returns the issue-rule class a slave copy's issue slot
// counts against: the file it touches (an integer read/write takes an
// integer slot, per scenario two of §2.1).
func slaveSlotClass(in *isa.Instruction, pl distPlan) isa.Class {
	if pl.nSlave > 0 {
		for _, r := range pl.slaveSrcs[:pl.nSlave] {
			if r.IsFP() {
				return isa.ClassFPOther
			}
		}
		return isa.ClassIntOther
	}
	if dest := in.Dest(); dest != isa.RegNone && dest.IsFP() {
		return isa.ClassFPOther
	}
	return isa.ClassIntOther
}

// bIdx converts a file flag to an index (0 int, 1 fp).
func bIdx(fp bool) int {
	if fp {
		return 1
	}
	return 0
}
