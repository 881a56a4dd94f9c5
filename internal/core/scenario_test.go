package core

import (
	"testing"

	"multicluster/internal/isa"
	"multicluster/internal/trace"
)

// retiredInst is a retired instruction together with its scoreboard entry:
// when its destination became readable in each cluster.
type retiredInst struct {
	dynInst
	readyIn [2]int64
}

// run executes a hand-built instruction slice on cfg and returns the
// retired instructions in order plus the stats.
func run(t *testing.T, cfg Config, instrs []isa.Instruction, entries func(int, *isa.Instruction) trace.Entry) ([]retiredInst, Stats) {
	t.Helper()
	es := make([]trace.Entry, len(instrs))
	for i := range instrs {
		if entries != nil {
			es[i] = entries(i, &instrs[i])
		} else {
			es[i] = trace.Entry{Index: i, Instr: &instrs[i]}
		}
	}
	p, err := New(cfg, &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	var retired []retiredInst
	p.observe = func(h handle, d *dynInst) {
		retired = append(retired, retiredInst{*d, [2]int64{p.ready[0][h&p.mask], p.ready[1][h&p.mask]}})
	}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stop != StopTraceEnd {
		t.Fatalf("simulation did not drain: %v", stats)
	}
	return retired, stats
}

func dual(t *testing.T) Config {
	t.Helper()
	return perfectCaches(DualCluster4Way())
}

// perfectCaches zeroes the miss latencies so timing tests observe pure
// pipeline behaviour; cache effects are tested separately.
func perfectCaches(cfg Config) Config {
	cfg.ICache.MissLatency = 0
	cfg.DCache.MissLatency = 0
	return cfg
}

// r/f build register names: even integer registers live in cluster 0, odd
// in cluster 1 (the evaluation's assignment).
func r(n int) isa.Reg { return isa.IntReg(n) }

func lda(dst isa.Reg, imm int64) isa.Instruction {
	return isa.Instruction{Op: isa.LDA, Dst: dst, Src1: isa.RegZero, Imm: imm, MemID: -1, BrID: -1}
}

func add(dst, s1, s2 isa.Reg) isa.Instruction {
	return isa.Instruction{Op: isa.ADD, Dst: dst, Src1: s1, Src2: s2, MemID: -1, BrID: -1}
}

func TestScenario1SingleDistribution(t *testing.T) {
	// All three registers local to cluster 0: one copy, no transfers.
	retired, stats := run(t, dual(t), []isa.Instruction{
		lda(r(2), 1),
		lda(r(4), 2),
		add(r(0), r(2), r(4)),
	}, nil)
	if stats.DualDist != 0 || stats.SingleDist != 3 {
		t.Fatalf("distribution: %d single %d dual, want 3/0", stats.SingleDist, stats.DualDist)
	}
	addInst := retired[2]
	if addInst.dual || addInst.masterCl != 0 {
		t.Fatalf("add distributed dual=%v master=%d, want single on cluster 0", addInst.dual, addInst.masterCl)
	}
	if stats.OperandForwards != 0 || stats.ResultForwards != 0 {
		t.Fatal("no transfers expected")
	}
}

func TestScenario2OperandForward(t *testing.T) {
	// add r0 = r2 + r1: r2 and the destination r0 live in cluster 0, r1 in
	// cluster 1 (Figure 2 with the evaluation's parity assignment). The
	// slave reads r1 in cluster 1, writes it into cluster 0's operand
	// transfer buffer; the master issues the next cycle.
	retired, stats := run(t, dual(t), []isa.Instruction{
		lda(r(2), 1),
		lda(r(1), 2),
		add(r(0), r(2), r(1)),
	}, nil)
	if stats.DualDist != 1 {
		t.Fatalf("dual distributions = %d, want 1", stats.DualDist)
	}
	if stats.OperandForwards != 1 || stats.ResultForwards != 0 {
		t.Fatalf("forwards op=%d res=%d, want 1/0", stats.OperandForwards, stats.ResultForwards)
	}
	d := retired[2]
	if d.masterCl != 0 {
		t.Fatalf("master cluster = %d, want 0 (majority of locals)", d.masterCl)
	}
	if !d.su.opFwdSlave || d.su.recvsResult {
		t.Fatalf("slave roles: opFwd=%v recv=%v, want operand forwarding only", d.su.opFwdSlave, d.su.recvsResult)
	}
	// Figure 2 timing: the ldas issue at cycle 1 (distributed at 0) and
	// complete at 2; the slave issues at 2; the master one cycle later.
	if d.su.issueCycle != 2 {
		t.Errorf("slave issued at %d, want 2", d.su.issueCycle)
	}
	if d.mu.issueCycle != d.su.issueCycle+1 {
		t.Errorf("master issued at %d, want slave+1 = %d", d.mu.issueCycle, d.su.issueCycle+1)
	}
	if d.readyIn[0] != d.mu.issueCycle+1 {
		t.Errorf("result ready in cluster 0 at %d, want %d", d.readyIn[0], d.mu.issueCycle+1)
	}
}

func TestScenario3ResultForward(t *testing.T) {
	// add r1 = r0 + r2: both sources in cluster 0, destination in cluster
	// 1 (Figure 3). The master computes in cluster 0 and forwards through
	// cluster 1's result transfer buffer; the slave is issued one cycle
	// after the master (one-cycle-latency add) and writes the physical
	// register bound in cluster 1.
	retired, stats := run(t, dual(t), []isa.Instruction{
		lda(r(0), 1),
		lda(r(2), 2),
		add(r(1), r(0), r(2)),
	}, nil)
	if stats.OperandForwards != 0 || stats.ResultForwards != 1 {
		t.Fatalf("forwards op=%d res=%d, want 0/1", stats.OperandForwards, stats.ResultForwards)
	}
	d := retired[2]
	if d.masterCl != 0 {
		t.Fatalf("master cluster = %d, want 0", d.masterCl)
	}
	if d.su.opFwdSlave || !d.su.recvsResult {
		t.Fatalf("slave roles wrong: opFwd=%v recv=%v", d.su.opFwdSlave, d.su.recvsResult)
	}
	if !d.renamed[1] || d.renamed[0] {
		t.Fatalf("physical register allocation: renamed=%v, want cluster 1 only", d.renamed)
	}
	if d.mu.issueCycle != 2 {
		t.Errorf("master issued at %d, want 2", d.mu.issueCycle)
	}
	if d.su.issueCycle != d.mu.issueCycle+1 {
		t.Errorf("slave issued at %d, want master+1 = %d", d.su.issueCycle, d.mu.issueCycle+1)
	}
	if d.readyIn[1] != d.su.issueCycle+1 {
		t.Errorf("r1 ready in cluster 1 at %d, want %d", d.readyIn[1], d.su.issueCycle+1)
	}
}

func TestScenario4GlobalDestination(t *testing.T) {
	// add SP = r0 + r2: both sources cluster 0, global destination
	// (Figure 4). Physical registers are allocated in both clusters; the
	// master writes its own copy and the result buffer; the slave writes
	// cluster 1's copy.
	retired, stats := run(t, dual(t), []isa.Instruction{
		lda(r(0), 1),
		lda(r(2), 2),
		add(isa.RegSP, r(0), r(2)),
	}, nil)
	if stats.ResultForwards != 1 {
		t.Fatalf("result forwards = %d, want 1", stats.ResultForwards)
	}
	d := retired[2]
	if !d.renamed[0] || !d.renamed[1] {
		t.Fatalf("global destination must allocate in both clusters: %v", d.renamed)
	}
	if d.readyIn[0] != d.resultCycle {
		t.Errorf("cluster 0 copy ready at %d, want master result %d", d.readyIn[0], d.resultCycle)
	}
	if d.readyIn[1] != d.su.issueCycle+1 {
		t.Errorf("cluster 1 copy ready at %d, want slave write %d", d.readyIn[1], d.su.issueCycle+1)
	}
}

func TestScenario5OperandForwardGlobalDest(t *testing.T) {
	// add SP = r1 + r0 (Figure 5): one source per cluster, global
	// destination. The slave forwards r1, suspends, and wakes to write
	// cluster 1's copy when the master's result reaches the buffer.
	retired, stats := run(t, dual(t), []isa.Instruction{
		lda(r(1), 1),
		lda(r(0), 2),
		add(isa.RegSP, r(1), r(0)),
	}, nil)
	if stats.OperandForwards != 1 || stats.ResultForwards != 1 {
		t.Fatalf("forwards op=%d res=%d, want 1/1", stats.OperandForwards, stats.ResultForwards)
	}
	d := retired[2]
	if !d.su.opFwdSlave || !d.su.recvsResult {
		t.Fatalf("slave must both forward an operand and receive the result")
	}
	if d.mu.issueCycle < d.su.issueCycle+1 {
		t.Errorf("master issued at %d before slave+1 (%d)", d.mu.issueCycle, d.su.issueCycle+1)
	}
	if d.readyIn[1] != d.resultCycle+1 {
		t.Errorf("suspended slave wrote at %d, want result+1 = %d", d.readyIn[1], d.resultCycle+1)
	}
	if d.doneCycle != d.resultCycle+1 {
		t.Errorf("done at %d, want %d (slave wake)", d.doneCycle, d.resultCycle+1)
	}
}

func TestMasterMajoritySelection(t *testing.T) {
	// add r1 = r3 + r5: every register in cluster 1 → single distribution
	// to cluster 1.
	retired, _ := run(t, dual(t), []isa.Instruction{
		lda(r(3), 1),
		lda(r(5), 2),
		add(r(1), r(3), r(5)),
	}, nil)
	d := retired[2]
	if d.dual || d.masterCl != 1 {
		t.Fatalf("dual=%v master=%d, want single on cluster 1", d.dual, d.masterCl)
	}
}

func TestDependenceChainSingleCluster(t *testing.T) {
	// A chain of dependent adds on the single-cluster machine retires one
	// per cycle once the pipeline fills: cycles ≈ chain length.
	n := 64
	instrs := make([]isa.Instruction, n)
	instrs[0] = lda(r(2), 1)
	for i := 1; i < n; i++ {
		instrs[i] = add(r(2), r(2), r(2))
	}
	_, stats := run(t, perfectCaches(SingleCluster8Way()), instrs, nil)
	if stats.Instructions != int64(n) {
		t.Fatalf("retired %d, want %d", stats.Instructions, n)
	}
	// Lower bound: each add issues one cycle after its predecessor.
	if stats.Cycles < int64(n) {
		t.Errorf("cycles = %d, impossibly fast for a dependence chain of %d", stats.Cycles, n)
	}
	if stats.Cycles > int64(n)+20 {
		t.Errorf("cycles = %d, want ≈ %d (chain-limited)", stats.Cycles, n)
	}
}

func TestIndependentAddsReachIssueWidth(t *testing.T) {
	// Independent adds across 8 rotating destination registers: the
	// eight-way single cluster should sustain IPC near 8.
	n := 512
	instrs := make([]isa.Instruction, n)
	for i := range instrs {
		instrs[i] = lda(r((i%8)*2), int64(i))
	}
	_, stats := run(t, perfectCaches(SingleCluster8Way()), instrs, nil)
	if ipc := stats.IPC(); ipc < 6 {
		t.Errorf("IPC = %.2f, want near 8 for independent integer ops", ipc)
	}
}

func TestDualClusterPerClusterWidth(t *testing.T) {
	// Independent adds all bound to cluster 0 registers: a dual-cluster
	// machine can only issue 4 per cycle from one cluster.
	n := 512
	instrs := make([]isa.Instruction, n)
	for i := range instrs {
		instrs[i] = lda(r((i%8)*2), int64(i)) // even registers: cluster 0
	}
	_, stats := run(t, dual(t), instrs, nil)
	if ipc := stats.IPC(); ipc > 4.2 {
		t.Errorf("IPC = %.2f on one cluster, must be ≤ 4", ipc)
	}
	if ipc := stats.IPC(); ipc < 3 {
		t.Errorf("IPC = %.2f, want near 4", ipc)
	}
}

func TestDualClusterBalancedReachesFullWidth(t *testing.T) {
	// Alternating even/odd destinations spread across both clusters: IPC
	// approaches 8 again.
	n := 1024
	instrs := make([]isa.Instruction, n)
	for i := range instrs {
		instrs[i] = lda(r(i%16), int64(i))
	}
	_, stats := run(t, dual(t), instrs, nil)
	if ipc := stats.IPC(); ipc < 6 {
		t.Errorf("IPC = %.2f, want near 8 with balanced distribution", ipc)
	}
}
