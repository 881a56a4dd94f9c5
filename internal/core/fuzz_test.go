package core

import (
	"math/rand"
	"testing"

	"multicluster/internal/isa"
	"multicluster/internal/trace"
)

// randomStream builds a random but well-formed instruction stream: register
// operations over arbitrary registers, loads/stores with random addresses,
// and conditional branches with random outcomes. The static "program" is a
// flat array the entries index.
func randomStream(rng *rand.Rand, n int) ([]isa.Instruction, []trace.Entry) {
	anyReg := func() isa.Reg {
		if rng.Intn(2) == 0 {
			return isa.IntReg(rng.Intn(31)) // avoid r31 (zero)
		}
		return isa.FPReg(rng.Intn(31))
	}
	intReg := func() isa.Reg { return isa.IntReg(rng.Intn(31)) }
	fpReg := func() isa.Reg { return isa.FPReg(rng.Intn(31)) }

	instrs := make([]isa.Instruction, n)
	entries := make([]trace.Entry, n)
	memID, brID := 0, 0
	for i := 0; i < n; i++ {
		var in isa.Instruction
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			in = isa.Instruction{Op: isa.ADD, Dst: intReg(), Src1: intReg(), Src2: intReg()}
		case 4:
			in = isa.Instruction{Op: isa.MUL, Dst: intReg(), Src1: intReg(), Src2: intReg()}
		case 5:
			in = isa.Instruction{Op: isa.FMUL, Dst: fpReg(), Src1: fpReg(), Src2: fpReg()}
		case 6:
			in = isa.Instruction{Op: isa.FDIV, Dst: fpReg(), Src1: fpReg(), Src2: fpReg()}
		case 7:
			in = isa.Instruction{Op: isa.LDW, Dst: intReg(), Src1: intReg(), MemID: memID}
			memID++
		case 8:
			in = isa.Instruction{Op: isa.STW, Src1: intReg(), Src2: anyReg(), MemID: memID}
			if in.Src2.IsFP() {
				in.Op = isa.STF
			}
			memID++
		case 9:
			in = isa.Instruction{Op: isa.BNE, Src1: intReg(), Target: rng.Intn(n), BrID: brID}
			brID++
		}
		if in.MemID == 0 && !in.Op.Class().IsMem() {
			in.MemID = -1
		}
		if in.BrID == 0 && !in.Op.IsCondBranch() {
			in.BrID = -1
		}
		instrs[i] = in
		entries[i] = trace.Entry{
			Index: i,
			Instr: &instrs[i],
			Addr:  uint64(rng.Intn(1 << 22)),
			Taken: rng.Intn(2) == 0,
		}
	}
	return instrs, entries
}

// byteStream decodes fuzzer-provided bytes into a well-formed instruction
// stream, mirroring randomStream's instruction mix but driven entirely by
// the input so the fuzzer can steer the machine into rare schedules.
func byteStream(data []byte) ([]isa.Instruction, []trace.Entry) {
	n := len(data)
	if n > 512 {
		n = 512
	}
	instrs := make([]isa.Instruction, n)
	entries := make([]trace.Entry, n)
	// Rolling hash over the input: each byte perturbs every later decision,
	// so small input mutations reach distinct machine states.
	h := uint64(1469598103934665603)
	next := func(b byte) uint64 {
		h ^= uint64(b)
		h *= 1099511628211
		return h
	}
	intReg := func(x uint64) isa.Reg { return isa.IntReg(int(x % 31)) }
	fpReg := func(x uint64) isa.Reg { return isa.FPReg(int(x % 31)) }
	memID, brID := 0, 0
	for i := 0; i < n; i++ {
		x := next(data[i])
		var in isa.Instruction
		switch x % 10 {
		case 0, 1, 2, 3:
			in = isa.Instruction{Op: isa.ADD, Dst: intReg(x >> 8), Src1: intReg(x >> 16), Src2: intReg(x >> 24)}
		case 4:
			in = isa.Instruction{Op: isa.MUL, Dst: intReg(x >> 8), Src1: intReg(x >> 16), Src2: intReg(x >> 24)}
		case 5:
			in = isa.Instruction{Op: isa.FMUL, Dst: fpReg(x >> 8), Src1: fpReg(x >> 16), Src2: fpReg(x >> 24)}
		case 6:
			in = isa.Instruction{Op: isa.FDIV, Dst: fpReg(x >> 8), Src1: fpReg(x >> 16), Src2: fpReg(x >> 24)}
		case 7:
			in = isa.Instruction{Op: isa.LDW, Dst: intReg(x >> 8), Src1: intReg(x >> 16), MemID: memID}
			memID++
		case 8:
			in = isa.Instruction{Op: isa.STW, Src1: intReg(x >> 8), Src2: intReg(x >> 16), MemID: memID}
			if x&(1<<40) != 0 {
				in.Op, in.Src2 = isa.STF, fpReg(x>>16)
			}
			memID++
		case 9:
			in = isa.Instruction{Op: isa.BNE, Src1: intReg(x >> 8), Target: int(x>>16) % n, BrID: brID}
			brID++
		}
		if in.MemID == 0 && !in.Op.Class().IsMem() {
			in.MemID = -1
		}
		if in.BrID == 0 && !in.Op.IsCondBranch() {
			in.BrID = -1
		}
		instrs[i] = in
		entries[i] = trace.Entry{
			Index: i,
			Instr: &instrs[i],
			Addr:  (x >> 32) % (1 << 22),
			Taken: x&(1<<48) != 0,
		}
	}
	return instrs, entries
}

// checkCycleInvariants asserts the machine laws that must hold after every
// cycle, not just at drain: transfer-buffer occupancy stays within the
// configured capacity, dispatch queues within QueueSize, physical-register
// free counts within the file size, and the replay machinery never lets a
// stall outlive its watchdog.
func checkCycleInvariants(t testing.TB, p *Processor) {
	t.Helper()
	cfg := &p.cfg
	for c := 0; c < cfg.Clusters; c++ {
		op, res := p.opBufUsed[c], p.resBufUsed[c]
		if op < 0 || res < 0 {
			t.Fatalf("cycle %d: negative buffer occupancy in cluster %d: op=%d res=%d", p.cycle, c, op, res)
		}
		if cfg.UnifiedBuffer {
			if op+res > cfg.OperandBuffer+cfg.ResultBuffer {
				t.Fatalf("cycle %d: unified buffer overflow in cluster %d: %d+%d > %d", p.cycle, c, op, res, cfg.OperandBuffer+cfg.ResultBuffer)
			}
		} else {
			if op > cfg.OperandBuffer {
				t.Fatalf("cycle %d: operand buffer overflow in cluster %d: %d > %d", p.cycle, c, op, cfg.OperandBuffer)
			}
			if res > cfg.ResultBuffer {
				t.Fatalf("cycle %d: result buffer overflow in cluster %d: %d > %d", p.cycle, c, res, cfg.ResultBuffer)
			}
		}
		if n := p.queueLen(c); n > cfg.QueueSize {
			t.Fatalf("cycle %d: cluster %d dispatch queue overflow: %d > %d", p.cycle, c, n, cfg.QueueSize)
		}
		if p.freeRegs[c][0] < 0 || p.freeRegs[c][0] > cfg.IntRegs {
			t.Fatalf("cycle %d: cluster %d int free-reg count out of range: %d", p.cycle, c, p.freeRegs[c][0])
		}
		if p.freeRegs[c][1] < 0 || p.freeRegs[c][1] > cfg.FPRegs {
			t.Fatalf("cycle %d: cluster %d fp free-reg count out of range: %d", p.cycle, c, p.freeRegs[c][1])
		}
	}
	checkWindowInvariants(t, p)
	// The just-simulated cycle is p.cycle-1. With work in flight, a stall
	// must trip the replay watchdog before it reaches ReplayWatchdog cycles.
	if p.activeLen() > 0 {
		if gap := (p.cycle - 1) - p.lastProgress; gap >= int64(cfg.ReplayWatchdog) {
			t.Fatalf("cycle %d: %d-cycle stall outlived the %d-cycle replay watchdog", p.cycle, gap, cfg.ReplayWatchdog)
		}
	}
	if p.bufBlockedRun >= bufferBlockCycles {
		t.Fatalf("cycle %d: buffer-blocked run %d survived the %d-cycle replay trigger", p.cycle, p.bufBlockedRun, bufferBlockCycles)
	}
}

// checkWindowInvariants asserts the handle discipline of the in-flight
// window after a cycle: the unissued cursor lies inside the window, the
// rename and store tables name only in-flight instructions of the right
// register or word, queue entries name unissued copies of in-flight
// instructions, and every
// in-flight instruction holds its transfer-buffer claims exactly over the
// §2.1 occupancy windows — operand entries from slave issue through master
// issue, result entries from master issue through the slave's read
// (scenarios 3/4) or the result's arrival (scenario 5). A release that
// fires early or never (say, a stale event landing on a reused slot)
// breaks the last check.
func checkWindowInvariants(t testing.TB, p *Processor) {
	t.Helper()
	now := p.cycle - 1
	if p.retiredH(p.unissued) || int32(p.unissued-p.tail) > 0 {
		t.Fatalf("cycle %d: unissued cursor %d outside the window [%d, %d)", now, p.unissued, p.head, p.tail)
	}
	inWindow := func(h handle) bool { return !p.retiredH(h) && int32(h-p.tail) < 0 }
	for c := 0; c < p.cfg.Clusters; c++ {
		for r, e := range p.rename[c] {
			if !e.ok {
				continue
			}
			if !inWindow(e.h) {
				t.Fatalf("cycle %d: cluster %d renames %v to position %d outside the window [%d, %d)", now, c, isa.Reg(r), e.h, p.head, p.tail)
			}
			if d := p.inst(e.h); d.destReg != isa.Reg(r) || !d.renamed[c] {
				t.Fatalf("cycle %d: cluster %d renames %v to seq %d, which does not write it there", now, c, isa.Reg(r), d.seq)
			}
		}
	}
	for c := 0; c < p.cfg.Clusters; c++ {
		k := &p.parked[c]
		entries := append([]queueEntry(nil), p.queue[c]...)
		entries = append(entries, k.woken...)
		parked := len(k.woken)
		for ps, w := range k.head {
			for ; w >= 0; w = k.entry[w].next {
				e := k.entry[w].e
				entries = append(entries, e)
				parked++
				if h := p.head + handle(int32(handle(ps)-p.head)&int32(p.mask)); p.ready[c][ps] != never || !inWindow(h) {
					t.Fatalf("cycle %d: cluster %d entry for position %d parked on slot %d, which is not an unissued producer", now, c, e.h, ps)
				}
				if int(e.h&p.mask) != int(w) {
					t.Fatalf("cycle %d: cluster %d entry for position %d parked in slot %d", now, c, e.h, w)
				}
				reads := false
				for _, src := range e.srcs[:e.nSrcs] {
					reads = reads || int(src&p.mask) == ps
				}
				if !reads {
					t.Fatalf("cycle %d: cluster %d entry for position %d parked on slot %d, which it does not read", now, c, e.h, ps)
				}
			}
		}
		if parked != k.n {
			t.Fatalf("cycle %d: cluster %d counts %d parked entries but holds %d", now, c, k.n, parked)
		}
		for _, e := range entries {
			if !inWindow(e.h) {
				t.Fatalf("cycle %d: cluster %d queues position %d outside the window [%d, %d)", now, c, e.h, p.head, p.tail)
			}
			d := p.inst(e.h)
			if u := d.uopOf(e); u.issued || int(u.cluster) != c || e.slave == u.master {
				t.Fatalf("cycle %d: cluster %d queue entry for seq %d names an issued or foreign copy", now, c, d.seq)
			}
			for _, src := range e.srcs[:e.nSrcs] {
				if int32(src-e.h) >= 0 {
					t.Fatalf("cycle %d: seq %d reads a younger position %d", now, d.seq, src)
				}
			}
		}
	}
	used := 0
	for _, e := range p.lastStore.slots {
		if !e.used {
			continue
		}
		used++
		if !inWindow(e.h) {
			t.Fatalf("cycle %d: store table maps %#x to position %d outside the window [%d, %d)", now, e.addr, e.h, p.head, p.tail)
		}
		if st := p.inst(e.h); st.in.Op.Class() != isa.ClassStore || st.addr&^7 != e.addr {
			t.Fatalf("cycle %d: store table maps %#x to seq %d, not a store to that word", now, e.addr, st.seq)
		}
	}
	if used != p.lastStore.n {
		t.Fatalf("cycle %d: store table counts %d entries but holds %d", now, p.lastStore.n, used)
	}
	for h := p.head; h != p.tail; h++ {
		d := p.inst(h)
		m, s := &d.mu, &d.su
		if dep := m.memDep; dep.ok && inWindow(dep.h) {
			if int32(dep.h-h) >= 0 {
				t.Fatalf("cycle %d: load seq %d depends on a younger position %d", now, d.seq, dep.h)
			}
			if st := p.inst(dep.h); st.in.Op.Class() != isa.ClassStore || st.addr&^7 != d.addr&^7 {
				t.Fatalf("cycle %d: load seq %d depends on seq %d, not a store to its word", now, d.seq, st.seq)
			}
		}
		wantOp := d.dual && s.opFwdSlave && s.issued && !(m.issued && m.issueCycle+1 <= now)
		release := never
		switch {
		case s.opFwdSlave:
			release = d.resultCycle + 1
		case s.issued:
			release = s.issueCycle + 1
		}
		wantRes := d.dual && m.sendsResult && m.issued && release > now
		if d.opHeld != wantOp || d.resHeld != wantRes {
			t.Fatalf("cycle %d: seq %d holds operand=%v result=%v buffer entries, want %v/%v",
				now, d.seq, d.opHeld, d.resHeld, wantOp, wantRes)
		}
	}
}

// machineInvariants runs a stream cycle by cycle, asserting the per-cycle
// invariants at every step plus strictly in-order retirement, then the
// conservation laws at drain: every instruction retires exactly once,
// physical-register free counts return to their initial values, the
// dispatch queues and active list drain, and the transfer-buffer occupancy
// ends at zero.
func machineInvariants(t testing.TB, cfg Config, entries []trace.Entry) Stats {
	t.Helper()
	p, err := New(cfg, &trace.SliceReader{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	lastSeq := int64(-1)
	p.observe = func(_ handle, d *dynInst) {
		if d.seq <= lastSeq {
			t.Fatalf("cycle %d: retirement out of sequence order: seq %d after %d", p.cycle, d.seq, lastSeq)
		}
		lastSeq = d.seq
	}
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = int64(1) << 62
	}
	p.stats.Stop = StopTraceEnd
	for !p.drained() && p.cycle < maxCycles {
		if err := p.step(); err != nil {
			t.Fatalf("%v (stats %v)", err, p.stats)
		}
		checkCycleInvariants(t, p)
	}
	p.stats.Cycles = p.cycle
	p.stats.ICache = p.icache.Stats()
	p.stats.DCache = p.dcache.Stats()
	p.stats.Predictor = p.pred.Stats()
	stats := p.stats

	if p.cycle >= maxCycles {
		t.Fatalf("machine did not drain within %d cycles: %v", maxCycles, stats)
	}
	if stats.Instructions != int64(len(entries)) {
		t.Fatalf("retired %d of %d", stats.Instructions, len(entries))
	}
	for c := 0; c < cfg.Clusters; c++ {
		// With no in-flight instructions every physical register beyond
		// those backing the (current) architectural state must be free.
		want := [2]int{
			cfg.IntRegs - p.backedRegs(c, false),
			cfg.FPRegs - p.backedRegs(c, true),
		}
		if p.freeRegs[c] != want {
			t.Fatalf("cluster %d leaked physical registers: have %v, want %v", c, p.freeRegs[c], want)
		}
		if n := p.queueLen(c); n != 0 {
			t.Fatalf("cluster %d queue not drained: %d entries", c, n)
		}
	}
	if n := p.activeLen(); n != 0 {
		t.Fatalf("active list not drained: %d", n)
	}
	// Every release event is scheduled no later than the instruction's
	// done cycle + 1, so after a drain the full horizon has passed.
	p.releaseBufferEntries(p.cycle + 1)
	if p.opBufUsed[0]|p.opBufUsed[1]|p.resBufUsed[0]|p.resBufUsed[1] != 0 {
		t.Fatalf("transfer buffers leaked: op=%v res=%v", p.opBufUsed, p.resBufUsed)
	}
	return stats
}

func TestRandomStreamsSatisfyInvariants(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, entries := randomStream(rng, 600)
		for _, cfg := range []Config{
			SingleCluster8Way(),
			DualCluster4Way(),
			DualCluster2Way(),
		} {
			cfg.MaxCycles = 2_000_000
			machineInvariants(t, cfg, entries)
		}
	}
}

func TestRandomStreamsWithTinyBuffersReplayButComplete(t *testing.T) {
	// Starved transfer buffers force replays; the machine must still
	// retire everything and conserve resources through squashes.
	sawReplay := false
	for seed := int64(100); seed < 115; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, entries := randomStream(rng, 600)
		cfg := DualCluster4Way()
		cfg.OperandBuffer = 1
		cfg.ResultBuffer = 1
		cfg.MaxCycles = 4_000_000
		stats := machineInvariants(t, cfg, entries)
		if stats.Replays > 0 {
			sawReplay = true
		}
	}
	if !sawReplay {
		t.Error("no replays across 15 starved-buffer runs; the deadlock path went unexercised")
	}
}

func TestStarvedReplaysWithoutRestartPenalty(t *testing.T) {
	// With no restart penalty, refetched instructions re-enter the window
	// the cycle after the squash and reuse their victims' ring positions
	// while the victims' buffer-release events are still pending — the
	// case the events' sequence check exists for.
	// The second pass confines memory to eight words, so replays squash
	// stores whose store-table entries refetched loads would run into.
	for _, words := range []uint64{0, 8} {
		for seed := int64(205); seed < 215; seed++ {
			_, entries := randomStream(rand.New(rand.NewSource(seed)), 4000)
			if words > 0 {
				for i := range entries {
					entries[i].Addr %= 8 * words
				}
			}
			cfg := DualCluster4Way()
			cfg.OperandBuffer, cfg.ResultBuffer = 1, 1
			cfg.ReplayPenalty = 0
			cfg.MaxCycles = 4_000_000
			if stats := machineInvariants(t, cfg, entries); stats.Replays == 0 {
				t.Errorf("seed %d: no replays", seed)
			}
		}
	}
}

func TestBufferBlockedYoungestIsNotADeadlock(t *testing.T) {
	// Regression: with single-entry buffers a long stream eventually blocks
	// the *youngest* in-flight instruction on buffer space held by older
	// instructions. That is a bounded transient — the holders drain on their
	// own — but the §2.1 replay trigger used to fire anyway and then fail
	// with "no younger instructions to squash".
	rng := rand.New(rand.NewSource(1))
	_, entries := randomStream(rng, 30_000)
	cfg := DualCluster4Way()
	cfg.OperandBuffer = 1
	cfg.ResultBuffer = 1
	cfg.MaxCycles = 10_000_000
	machineInvariants(t, cfg, entries)
}

func TestRandomStreamsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	_, entries := randomStream(rng, 600)
	cfg := DualCluster4Way()
	cfg.MaxCycles = 2_000_000
	a := machineInvariants(t, cfg, entries)
	b := machineInvariants(t, cfg, entries)
	if a.Cycles != b.Cycles || a.DualDist != b.DualDist || a.Replays != b.Replays {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestRandomStreamsUnderLowHighAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	_, entries := randomStream(rng, 600)
	cfg := DualCluster4Way()
	cfg.Assignment = isa.LowHighAssignment()
	cfg.MaxCycles = 2_000_000
	machineInvariants(t, cfg, entries)
}

func TestRandomStreamsWithReassignment(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	_, entries := randomStream(rng, 600)
	cfg := DualCluster4Way()
	cfg.MaxCycles = 4_000_000
	cfg.Reassignments = []Reassignment{
		{AtIndex: entries[300].Index, To: isa.LowHighAssignment()},
	}
	machineInvariants(t, cfg, entries)
}

// fuzzConfig derives a machine configuration from the selector byte: the
// fuzzer chooses the cluster count, buffer sizing (including the starved
// replay-heavy regime), buffer pooling, and the register-assignment scheme.
func fuzzConfig(sel byte) Config {
	var cfg Config
	if sel&1 != 0 {
		cfg = SingleCluster8Way()
	} else {
		cfg = DualCluster4Way()
	}
	if sel&2 != 0 {
		cfg.OperandBuffer, cfg.ResultBuffer = 1, 1
	}
	if sel&4 != 0 {
		cfg.UnifiedBuffer = true
		// The ablation policies need two operand entries under a non-unified
		// buffer; unified pools of 2 are valid.
	}
	if sel&8 != 0 {
		cfg.Assignment = isa.LowHighAssignment()
	}
	if sel&16 != 0 {
		cfg.MasterSelect = MasterAlternate
		if cfg.OperandBuffer < 2 && !cfg.UnifiedBuffer {
			cfg.OperandBuffer = 2
		}
	}
	cfg.MaxCycles = 2_000_000
	return cfg
}

// FuzzCore feeds byte-derived instruction streams through byte-derived
// configurations and asserts every machine invariant at every cycle. The
// seed corpus under testdata/fuzz/FuzzCore pins the regimes the unit tests
// care about (starved buffers, unified pools, alternate-master policy).
func FuzzCore(f *testing.F) {
	f.Add([]byte("multicluster"))
	f.Add([]byte{0x02, 7, 7, 8, 8, 9, 9, 7, 8, 9, 7, 8, 9})
	f.Add([]byte{0x14, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip("need a selector byte and at least one instruction")
		}
		cfg := fuzzConfig(data[0])
		_, entries := byteStream(data[1:])
		machineInvariants(t, cfg, entries)
	})
}
