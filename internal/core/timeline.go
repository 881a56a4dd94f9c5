package core

import "multicluster/internal/trace"

// InstrTimeline records the pipeline lifetime of one retired instruction:
// the event times the paper's Figures 2–5 draw. Cycle values are -1 when
// the event does not apply (e.g. SlaveIssue for a single-distributed
// instruction).
type InstrTimeline struct {
	Seq  int64
	Text string

	Dual          bool
	MasterCluster int

	// OperandForward and ResultForward describe the slave copy's role.
	OperandForward, ResultForward bool

	Distributed int64
	MasterIssue int64
	SlaveIssue  int64
	Result      int64 // master computation complete
	Done        int64 // all copies complete (retire-eligible)
}

// CollectTimeline simulates the trace on cfg and returns one timeline entry
// per retired instruction, in program order, along with the run statistics.
// Intended for short diagnostic programs (the scenario reproductions); the
// timeline grows with the trace.
func CollectTimeline(cfg Config, r trace.Reader) ([]InstrTimeline, Stats, error) {
	p, err := New(cfg, r)
	if err != nil {
		return nil, Stats{}, err
	}
	var out []InstrTimeline
	p.observe = func(_ handle, d *dynInst) {
		tl := InstrTimeline{
			Seq:           d.seq,
			Text:          d.in.String(),
			Dual:          d.dual,
			MasterCluster: int(d.masterCl),
			Distributed:   d.mu.distributedAt,
			MasterIssue:   d.mu.issueCycle,
			SlaveIssue:    -1,
			Result:        d.resultCycle,
			Done:          d.doneCycle,
		}
		if d.dual {
			tl.SlaveIssue = d.su.issueCycle
			tl.OperandForward = d.su.opFwdSlave
			tl.ResultForward = d.su.recvsResult
		}
		out = append(out, tl)
	}
	stats, err := p.Run()
	if err != nil {
		return out, stats, err
	}
	return out, stats, nil
}
