package core

import (
	"testing"

	"multicluster/internal/isa"
	"multicluster/internal/trace"
)

func TestDynamicReassignmentSwitchesScheme(t *testing.T) {
	// Phase 1 uses registers that are all cluster-0 under even/odd; after
	// the hint the machine runs under low/high, where the same registers
	// split across clusters. The add after the switch must dual-distribute
	// under low/high semantics (r2 and r20 in different clusters).
	instrs := []isa.Instruction{
		lda(r(2), 1),           // 0: phase 1
		lda(r(4), 2),           // 1
		add(r(0), r(2), r(4)),  // 2: all-even: single under even/odd
		lda(r(20), 3),          // 3: reassignment point (before this)
		add(r(2), r(2), r(20)), // 4: r2(low)=c0, r20(high)=c1 under low/high
	}
	cfg := perfectCaches(DualCluster4Way())
	cfg.Reassignments = []Reassignment{{AtIndex: 3, To: isa.LowHighAssignment()}}
	retired, stats := run(t, cfg, instrs, nil)

	if stats.Reassign.Applied != 1 {
		t.Fatalf("reassignments applied = %d, want 1", stats.Reassign.Applied)
	}
	if stats.Reassign.MigratedRegs == 0 || stats.Reassign.MigrateCycles == 0 {
		t.Errorf("no migration cost recorded: %+v", stats.Reassign)
	}
	// Phase-1 add: single-distributed (even/odd, all cluster 0).
	if retired[2].dual {
		t.Error("phase-1 add dual-distributed under even/odd")
	}
	// Phase-2 add spans low/high clusters: dual.
	if !retired[4].dual {
		t.Error("phase-2 add not dual-distributed under low/high")
	}
	// The switch serializes: everything before it retired before the
	// phase-2 instructions were distributed.
	if retired[3].mu.distributedAt <= retired[2].doneCycle {
		t.Errorf("switch did not drain: phase-2 distributed at %d, phase-1 done at %d",
			retired[3].mu.distributedAt, retired[2].doneCycle)
	}
}

func TestReassignmentFiresOnce(t *testing.T) {
	// A loop over the hint index must not re-trigger the switch.
	instrs := []isa.Instruction{
		lda(r(2), 1),
		{Op: isa.BNE, Src1: r(2), Target: 0, MemID: -1, BrID: 0},
	}
	var es []trace.Entry
	for i := 0; i < 10; i++ {
		es = append(es, trace.Entry{Index: 0, Instr: &instrs[0]})
		es = append(es, trace.Entry{Index: 1, Instr: &instrs[1], Taken: i < 9})
	}
	cfg := perfectCaches(DualCluster4Way())
	cfg.Reassignments = []Reassignment{{AtIndex: 0, To: isa.LowHighAssignment()}}
	p, err := New(cfg, &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reassign.Applied != 1 {
		t.Errorf("hint applied %d times, want once", stats.Reassign.Applied)
	}
	if stats.Instructions != int64(len(es)) {
		t.Errorf("retired %d of %d", stats.Instructions, len(es))
	}
}

func TestNoReassignmentsZeroCost(t *testing.T) {
	instrs := []isa.Instruction{lda(r(2), 1)}
	_, stats := run(t, dual(t), instrs, nil)
	if stats.Reassign != (ReassignStats{}) {
		t.Errorf("reassignment stats non-zero without hints: %+v", stats.Reassign)
	}
}
