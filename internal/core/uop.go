package core

import (
	"math"

	"multicluster/internal/bpred"
	"multicluster/internal/isa"
)

// never is a cycle that never arrives.
const never = int64(math.MaxInt64 / 4)

// handle names an in-flight instruction by its position in the processor's
// active ring (see ring.go). Positions count distributions, wrap modulo
// 2^32, and are rewound by a replay squash, so a handle stays meaningful
// only while the instruction is in flight or just retired; everything that
// can outlive that checks the instruction's sequence number or compares the
// position against the ring head.
type handle uint32

// ref is an optional reference to an older in-flight instruction.
type ref struct {
	h  handle
	ok bool
}

// dynInst is one logical dynamic instruction in flight. A dual-distributed
// instruction owns two uops (a master mu and a slave su); a
// single-distributed instruction uses only mu. Instructions live by value
// in the processor's active ring and refer to each other by handle, so the
// in-flight window holds no pointers besides the static instruction.
type dynInst struct {
	seq   int64
	idx   int // static instruction index
	in    *isa.Instruction
	addr  uint64
	taken bool

	latency int32

	dual     bool
	masterCl int8
	mu, su   uop

	// resultCycle is when the master's computation completes (set at
	// master issue). When the destination becomes readable in each cluster
	// is kept apart, in the processor's scoreboard.
	resultCycle int64
	// doneCycle is when every copy's work is finished (retire-eligible).
	doneCycle int64

	issuedCopies int8
	copies       int8

	// Destination renaming bookkeeping for squash and retire.
	destReg  isa.Reg
	renamed  [2]bool
	prevProd [2]ref

	// Conditional-branch state.
	isCondBr     bool
	snap         bpred.Snapshot
	mispredicted bool
	resolved     bool

	// opHeld / resHeld track whether this instruction currently occupies
	// operand / result transfer-buffer entries, so a squash or a release
	// event frees each claim exactly once.
	opHeld  bool
	resHeld bool
}

// allIssued reports whether every copy has issued.
func (d *dynInst) allIssued() bool { return d.issuedCopies == d.copies }

// retireReady reports whether the instruction can retire at cycle t.
func (d *dynInst) retireReady(t int64) bool {
	return d.allIssued() && d.doneCycle <= t
}

// uop is one copy of an instruction in one cluster's dispatch queue.
type uop struct {
	distributedAt int64
	issueCycle    int64

	cluster int8
	master  bool
	issued  bool

	// fwdOperands is, for a master, the number of operands its slave
	// forwards through the master cluster's operand transfer buffer.
	fwdOperands int8
	// sendsResult marks a master that must allocate a result-buffer entry
	// in the other cluster at issue.
	sendsResult bool
	// opFwdSlave marks a slave that reads operands and forwards them.
	opFwdSlave bool
	// recvsResult marks a slave whose cluster receives the result.
	recvsResult bool

	// slotClass is the issue-rule class this copy's issue slot counts
	// against.
	slotClass isa.Class

	// memDep, on a load's master, is the youngest older in-flight store to
	// the same (word-aligned) address; the load issues no earlier than one
	// cycle after it (store-queue forwarding).
	memDep ref
}

// interCopyReady checks the dependence between the two copies of a
// dual-distributed instruction (§2.1): a master waits one cycle past its
// operand-forwarding slave's issue; a result-receiving slave is released
// max(1, L-1) cycles after the master issues (two cycles before the result
// is due).
func (d *dynInst) interCopyReady(u *uop, t int64) bool {
	if u.master {
		if u.fwdOperands > 0 {
			s := &d.su
			if !s.issued || s.issueCycle+1 > t {
				return false
			}
		}
		return true
	}
	// Slave.
	if u.recvsResult && !u.opFwdSlave {
		m := &d.mu
		if !m.issued {
			return false
		}
		// Released two cycles before the master's result is due (so the
		// forwarded value meets the slave in the buffer), but never in the
		// master's own issue cycle. Using the actual result cycle matters
		// for loads, whose completion depends on the data cache.
		rel := d.resultCycle - 1
		if min := m.issueCycle + 1; rel < min {
			rel = min
		}
		return rel <= t
	}
	// Operand-forwarding slave: gated only by its sources (and resources).
	return true
}
