package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"multicluster/internal/sweep"
)

// pollInterval is how often a solo-cells client polls its job: well under
// a tenth of a cold 100k-instruction cell.
const pollInterval = 4 * time.Millisecond

// registryFill is how many cache-hit submits hot-reads set-up makes: past
// the registry's retention bound, so reads meet a registry that evicts.
const registryFill = sweep.DefaultJobRetention + 76

// workloadDef is one named workload.
type workloadDef struct {
	name string
	// prefill fills the system in set-up; nil means nothing to fill.
	prefill func(e *env, p plan) (any, error)
	run     func(e *env, p plan, state any, c config) *outcome
}

var workloads = []workloadDef{
	{
		name: "solo-cells",
		run:  runSolo,
	},
	{
		name: "sweep-grid",
		run:  runSweeps,
	},
	{
		name:    "hot-reads",
		prefill: prefillReads,
		run:     runReads,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// outcome is what one timed window measured.
type outcome struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	// lat holds the latency of every operation, in ms.
	lat []float64
	// perOp holds the latency of every ledger operation (a cell, a sweep,
	// a base-rate read), in ms: what the layer ledger must account for.
	perOp []float64
	// opsPerS is the workload's throughput metric.
	opsPerS float64
	// timings and extra are the workload's own named figures for the
	// detail file.
	timings map[string]timing
	extra   map[string]float64
	// cold cells and sweeps done in the window, for the traced replay.
	cold   []coldCell
	sweeps []sweepRun
	// reads done in the base-rate step of hot-reads.
	reads []readSample
	// ledgerOp reports whether an op id counts in the layer ledger.
	ledgerOp func(op int64) bool
}

func newOutcome() *outcome {
	return &outcome{timings: map[string]timing{}, extra: map[string]float64{}, ledgerOp: func(int64) bool { return true }}
}

func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func window(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// coldCell is one cold cell a solo-cells client completed.
type coldCell struct {
	op      int64
	spec    sweep.JobSpec
	result  json.RawMessage
	created time.Time
	started time.Time
}

// runSolo is solo-cells: a closed loop of workers() clients, each
// submitting a spec no earlier operation used and polling it to the end.
func runSolo(e *env, p plan, _ any, c config) *outcome {
	o := newOutcome()
	var next atomic.Int64
	// stopAt is the first cell not to run: past the deadline, the clients
	// finish the rotation in progress, so every run measures whole
	// rotations of the same mix.
	var stopAt atomic.Int64
	stopAt.Store(math.MaxInt64)
	start := time.Now()
	deadline := start.Add(window(c.seconds))
	var last atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if !time.Now().Before(deadline) {
					rot := int64(soloRotation)
					stopAt.CompareAndSwap(math.MaxInt64, (k+rot-1)/rot*rot)
				}
				if k >= stopAt.Load() {
					return
				}
				spec := soloSpec(p.seed, int(k))
				t0 := time.Now()
				v, err := e.run(k, spec, pollInterval)
				lat := time.Since(t0)
				last.Store(int64(time.Since(start)))
				o.mu.Lock()
				o.attempted++
				o.mu.Unlock()
				if err == nil {
					err = checkCold(v, spec)
				}
				if err != nil {
					o.fail("cell %d (%s): %v", k, spec, err)
					continue
				}
				o.mu.Lock()
				o.lat = append(o.lat, ms(lat))
				o.cold = append(o.cold, coldCell{op: k, spec: spec, result: v.Result, created: v.Created, started: v.Started})
				o.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Duration(last.Load())
	sort.Slice(o.cold, func(i, j int) bool { return o.cold[i].op < o.cold[j].op })
	o.opsPerS = float64(len(o.lat)) / elapsed.Seconds()
	o.extra["sim_minstr_per_s"] = o.opsPerS * cellInstrs / 1e6
	o.timings["cell_ms"] = newDist(o.lat).timing(0.90)
	o.perOp = o.lat
	return o
}

// checkCold checks a finished cold cell: computed, not served from cache,
// with a result for the submitted spec.
func checkCold(v jobView, spec sweep.JobSpec) error {
	if v.CacheHit {
		return fmt.Errorf("fresh spec served from cache")
	}
	want, err := spec.Hash()
	if err != nil {
		return err
	}
	if v.Hash != want {
		return fmt.Errorf("job hash %s, want %s", v.Hash, want)
	}
	snap, err := resultStats(v.Result)
	if err != nil {
		return err
	}
	if snap.Instructions != spec.Instructions {
		return fmt.Errorf("simulated %d instructions, want %d", snap.Instructions, spec.Instructions)
	}
	return nil
}

// sweepRun is one sweep the sweep-grid client read to the end.
type sweepRun struct {
	op       int64
	grid     sweep.Grid
	rows     []json.RawMessage
	lat      time.Duration
	firstRow time.Duration
}

// runSweeps is sweep-grid: one client, one sweep at a time, each read to
// its last row.
func runSweeps(e *env, p plan, _ any, c config) *outcome {
	o := newOutcome()
	start := time.Now()
	deadline := start.Add(window(c.seconds))
	var sweepLat, firstRow, rowsPerS []float64
	var elapsed time.Duration
	// Past the deadline, finish the rotation in progress, so every run
	// measures whole rotations over the six benchmarks.
	for k := 0; k%sweepRotation != 0 || time.Now().Before(deadline); k++ {
		g := sweepGrid(p.seed, k)
		specs, err := g.Expand()
		if err != nil {
			o.fail("sweep %d: %v", k, err)
			break
		}
		o.attempted += len(specs)
		run := sweepRun{op: int64(k), grid: g, rows: make([]json.RawMessage, len(specs))}
		t0 := time.Now()
		var rowLat []float64
		seen := 0
		id, err := e.createSweep(int64(k), g)
		if err == nil {
			_, err = e.streamSweep(int64(k), id, func(i int, line []byte) {
				at := time.Since(t0)
				seen++
				if i == 0 {
					run.firstRow = at
				}
				var row sweepRow
				if jerr := json.Unmarshal(line, &row); jerr != nil {
					o.fail("sweep %d row %d: %v", k, i, jerr)
					return
				}
				if cerr := checkRow(row, i, specs); cerr != nil {
					o.fail("sweep %d row %d: %v", k, i, cerr)
					return
				}
				run.rows[i] = row.Result
				rowLat = append(rowLat, ms(at))
			})
		}
		run.lat = time.Since(t0)
		elapsed = time.Since(start)
		if err != nil {
			o.fail("sweep %d: %v", k, err)
			continue
		}
		if seen < len(specs) {
			for i := seen; i < len(specs); i++ {
				o.fail("sweep %d: stream ended before row %d", k, i)
			}
		}
		if len(rowLat) < len(specs) {
			continue
		}
		o.lat = append(o.lat, rowLat...)
		o.sweeps = append(o.sweeps, run)
		sweepLat = append(sweepLat, run.lat.Seconds())
		o.perOp = append(o.perOp, ms(run.lat))
		firstRow = append(firstRow, ms(run.firstRow))
		if span := run.lat - run.firstRow; span > 0 {
			rowsPerS = append(rowsPerS, float64(len(specs)-1)/span.Seconds())
		}
	}
	o.opsPerS = float64(len(o.lat)) / elapsed.Seconds()
	o.extra["sim_minstr_per_s"] = o.opsPerS * cellInstrs / 1e6
	o.extra["sweeps.first_row_ms"] = median(firstRow)
	o.extra["sweeps.rows_per_s"] = median(rowsPerS)
	o.timings["sweep_s"] = newDist(sweepLat).timing(0.90)
	o.timings["row_ms"] = newDist(o.lat).timing(0.90)
	return o
}

// checkRow checks one NDJSON row of a sweep: in grid order, computed, for
// the spec of its cell.
func checkRow(row sweepRow, i int, specs []sweep.JobSpec) error {
	if row.Index != i || row.Total != len(specs) {
		return fmt.Errorf("row %d/%d, want %d/%d", row.Index, row.Total, i, len(specs))
	}
	if row.Error != "" {
		return fmt.Errorf("cell failed: %s", row.Error)
	}
	var r struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(row.Result, &r); err != nil {
		return err
	}
	want, err := specs[i].Hash()
	if err != nil {
		return err
	}
	if r.Hash != want {
		return fmt.Errorf("result hash %s, want %s", r.Hash, want)
	}
	_, err = resultStats(row.Result)
	return err
}

// hotState is what hot-reads set-up captured: the expected bytes of every
// read.
type hotState struct {
	specs     []sweep.JobSpec
	bodies    [][]byte // the submit body of each warm spec
	hash      []string
	specRaw   [][]byte
	resultRaw [][]byte
	table2    string
	table2Raw []byte
	sweepID   string
	rows      [][]byte
}

// prefillReads computes the warm specs, a Table 2 and one sweep, captures
// their bodies, and fills the job registry past its retention bound.
func prefillReads(e *env, p plan) (any, error) {
	st := &hotState{}
	for j := 0; j < warmSpecs; j++ {
		spec := warmSpec(p.seed, j)
		v, err := e.run(-1, spec, time.Millisecond)
		if err != nil {
			return nil, fmt.Errorf("warm spec %s: %w", spec, err)
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		st.specs = append(st.specs, spec)
		st.bodies = append(st.bodies, body)
		st.hash = append(st.hash, v.Hash)
		st.specRaw = append(st.specRaw, v.Spec)
		st.resultRaw = append(st.resultRaw, v.Result)
	}
	st.table2 = fmt.Sprintf("/v1/table2?n=%d&seed=%d&format=json", table2Instrs, warmTable2Seed(p.seed))
	var err error
	if st.table2Raw, err = e.do(-1, "GET", st.table2, nil); err != nil {
		return nil, fmt.Errorf("table2: %w", err)
	}
	if st.sweepID, err = e.createSweep(-1, warmGrid(p.seed)); err != nil {
		return nil, fmt.Errorf("warm sweep: %w", err)
	}
	all, err := e.streamSweep(-1, st.sweepID, nil)
	if err != nil {
		return nil, fmt.Errorf("warm sweep: %w", err)
	}
	st.rows = bytes.SplitAfter(all, []byte("\n"))
	if n := len(st.rows); n > 0 && len(st.rows[n-1]) == 0 {
		st.rows = st.rows[:n-1]
	}
	if len(st.rows) != warmGridCells {
		return nil, fmt.Errorf("warm sweep: %d rows, want %d", len(st.rows), warmGridCells)
	}
	// Fill the registry with cache hits from workers() clients.
	var next atomic.Int64
	errs := make(chan error, workers())
	var lastID atomic.Value
	var wg sync.WaitGroup
	for c := 0; c < workers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= registryFill {
					errs <- nil
					return
				}
				v, err := e.submit(-1, st.specs[i%warmSpecs])
				if err != nil {
					errs <- err
					return
				}
				if i == registryFill-1 {
					lastID.Store(v.ID)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, fmt.Errorf("registry fill: %w", err)
		}
	}
	if _, _, err := e.await(-1, lastID.Load().(string), time.Millisecond); err != nil {
		return nil, fmt.Errorf("registry fill: %w", err)
	}
	return st, nil
}

// readSample is one request of the base-rate step.
type readSample struct {
	op   int64
	kind readKind
	spec int
	lat  time.Duration // from the scheduled send
	late time.Duration // how late it was sent
}

// stepResult is what one open-loop step measured.
type stepResult struct {
	rate       float64
	lat, late  []float64 // ms
	backlogMax int
	backlogEnd int
	failed     int
	tail       timing
	pass       bool
	// served is the rate the step's requests completed at, from its start
	// to its last completion: the offered rate below saturation, the
	// server's capacity above it.
	served  float64
	samples []readSample
}

// ladderOpBase separates the op ids of ladder steps from base-rate ones;
// only the base-rate step enters the layer ledger.
const ladderOpBase = 1 << 32

// runReads is hot-reads: the base-rate step, then the ladder until two
// rates in a row fail.
func runReads(e *env, p plan, state any, _ config) *outcome {
	st := state.(*hotState)
	o := newOutcome()
	o.ledgerOp = func(op int64) bool { return op >= 0 && op < ladderOpBase }
	h := &hotReads{e: e, st: st, o: o}
	var steps []stepResult
	opBase := int64(0)
	failedInRow := 0
	for i, s := range p.reads {
		r := h.step(s, opBase)
		steps = append(steps, r)
		if i == 0 {
			o.lat = r.lat
			o.perOp = r.lat
			o.reads = r.samples
			byKind := make([][]float64, numReadKinds)
			for _, smp := range r.samples {
				byKind[smp.kind] = append(byKind[smp.kind], ms(smp.lat))
			}
			for k, xs := range byKind {
				o.timings["read_"+readKind(k).String()+"_ms"] = newDist(xs).timing(0.99)
			}
			o.extra["loadgen.late_ms_p99"] = r.tailLate()
			o.extra["loadgen.backlog_max"] = float64(r.backlogMax)
			o.timings["read_ms"] = r.tail
			opBase = ladderOpBase
		} else {
			opBase += int64(len(s.ops))
		}
		o.timings[fmt.Sprintf("step_%g_rps_ms", s.rate)] = r.tail
		o.extra[fmt.Sprintf("step_%g_rps_served", s.rate)] = r.served
		// Saturation is past once two rates in a row fail: a single
		// failure below it is a stall of the host.
		if failedInRow = failedInRow + 1; r.pass {
			failedInRow = 0
		}
		if failedInRow == 2 {
			break
		}
	}
	o.opsPerS = maxRate(steps)
	o.extra["read_max_rps"] = o.opsPerS
	o.extra["ladder_steps"] = float64(len(steps))
	return o
}

// maxRate is the highest rate served without a growing backlog. Past the
// highest step that passed, the steps are saturated and serve at the
// server's capacity whatever is offered; their mean served rate, bounded
// below by the passing rate, is the figure. Served rates rather than a
// step's offered rate keep it from jumping a whole step between runs.
func maxRate(steps []stepResult) float64 {
	top := -1
	for i, s := range steps {
		if s.pass {
			top = i
		}
	}
	if top == len(steps)-1 {
		return steps[top].rate
	}
	lo := 0.0
	if top >= 0 {
		lo = steps[top].rate
	}
	var served []float64
	for _, s := range steps[top+1:] {
		served = append(served, s.served)
	}
	return max(newDist(served).mean(), lo)
}

func (r stepResult) tailLate() float64 {
	_, v, _ := tailQuantile(newDist(r.late).sorted, 0.99)
	return v
}

// readLimitMS is the latency limit of the ladder: a rate passes when the
// backlog left at the end of its schedule drains within it.
const readLimitMS = 100

// hotReads runs the open loop of hot-reads.
type hotReads struct {
	e  *env
	st *hotState
	o  *outcome
	// recent holds the jobs of the latest jobLag successful submits, the
	// n-th in recent[n%jobLag]; job reads poll one of them.
	mu     sync.Mutex
	recent [jobLag]submitted
	n      int
}

type submitted struct {
	id   string
	spec int
}

// openLoop runs one fixed-rate step: conns connections take the ops in
// schedule order, each waiting for its op's due time; latency counts from
// the due time, so a stall shows in every request it delays. A step
// passes when no request failed and the requests still queued when its
// schedule ended could all be sent within limit (ms): a backlog that
// outlasts the latency limit is one that grew. A host stall shorter than
// the limit does not fail a step; the tail it causes is reported.
func openLoop(ops []readOp, dur time.Duration, conns int, limit float64, exec func(i int64, op readOp) error) stepResult {
	var res stepResult
	start := time.Now().Add(time.Millisecond)
	end := start.Add(dur)
	samples := make([]readSample, len(ops))
	errs := make([]error, len(ops))
	var mu sync.Mutex
	next := 0
	endSeen := false
	lastDone := start
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				now := time.Now()
				due := sort.Search(len(ops), func(j int) bool { return start.Add(ops[j].at).After(now) })
				res.backlogMax = max(res.backlogMax, due-i)
				if !now.Before(end) && !endSeen {
					// The schedule is over: whatever is still untaken is
					// the backlog the step built.
					endSeen = true
					res.backlogEnd = max(len(ops)-i, 0)
				}
				mu.Unlock()
				if i >= len(ops) {
					return
				}
				dueAt := start.Add(ops[i].at)
				waitUntil(dueAt)
				sent := time.Now()
				errs[i] = exec(int64(i), ops[i])
				done := time.Now()
				mu.Lock()
				if done.After(lastDone) {
					lastDone = done
				}
				mu.Unlock()
				samples[i] = readSample{op: int64(i), kind: ops[i].kind, spec: ops[i].spec, lat: done.Sub(dueAt), late: sent.Sub(dueAt)}
			}
		}()
	}
	wg.Wait()
	for i, smp := range samples {
		if errs[i] != nil {
			res.failed++
			continue
		}
		res.lat = append(res.lat, ms(smp.lat))
		res.late = append(res.late, ms(smp.late))
		res.samples = append(res.samples, smp)
	}
	res.tail = newDist(res.lat).timing(0.99)
	res.served = float64(len(ops)) / lastDone.Sub(start).Seconds()
	res.pass = res.failed == 0 && res.backlogEnd <= maxBacklog(len(ops), dur, conns, limit)
	return res
}

// maxBacklog is the most requests a step may leave queued when its
// schedule ends: more than the connections take within the latency limit
// at the step's rate is a backlog that grew.
func maxBacklog(n int, dur time.Duration, conns int, limit float64) int {
	rate := float64(n) / dur.Seconds()
	return max(conns, int(rate*limit/1000))
}

// spinWindow is how long before a due time waitUntil stops sleeping and
// yields in a loop instead: a timer sleep here overshoots by up to a
// millisecond, which would otherwise count as latency of the system.
const spinWindow = 1500 * time.Microsecond

func waitUntil(t time.Time) {
	if d := time.Until(t); d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// step runs one step of the plan, with op ids from opBase on.
func (h *hotReads) step(s readStep, opBase int64) stepResult {
	res := openLoop(s.ops, s.dur, workers(), readLimitMS, func(i int64, op readOp) error {
		err := h.exec(opBase+i, op)
		if err != nil {
			h.o.fail("%s read %d: %v", op.kind, opBase+i, err)
		}
		return err
	})
	h.o.attempted += len(s.ops)
	res.rate = s.rate
	for i := range res.samples {
		res.samples[i].op += opBase
	}
	return res
}

// exec sends one read and checks its body against set-up's capture.
func (h *hotReads) exec(op int64, r readOp) error {
	st := h.st
	switch r.kind {
	case readSubmit:
		out, err := h.e.do(op, "POST", "/v1/jobs", st.bodies[r.spec])
		if err != nil {
			return err
		}
		var v jobView
		if err := json.Unmarshal(out, &v); err != nil {
			return err
		}
		if v.Hash != st.hash[r.spec] || !bytes.Equal(v.Spec, st.specRaw[r.spec]) {
			return fmt.Errorf("submit of warm spec %d answered for another spec", r.spec)
		}
		h.publish(submitted{v.ID, r.spec})
		return nil
	case readJob:
		s, ok := h.pick(r.lag)
		if !ok {
			return fmt.Errorf("no submit has completed to poll")
		}
		id, spec := s.id, s.spec
		for tries := 0; ; tries++ {
			v, _, err := h.e.getJob(op, id)
			if err != nil {
				return err
			}
			if !v.terminal() && tries < 1000 {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			switch {
			case v.ID != id || v.State != "done" || !v.CacheHit:
				return fmt.Errorf("job %s: state %s cache_hit %v", id, v.State, v.CacheHit)
			case v.Hash != st.hash[spec] || !bytes.Equal(v.Spec, st.specRaw[spec]) || !bytes.Equal(v.Result, st.resultRaw[spec]):
				return fmt.Errorf("job %s: body differs from set-up's", id)
			}
			return nil
		}
	case readTable2:
		out, err := h.e.do(op, "GET", st.table2, nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(out, st.table2Raw) {
			return fmt.Errorf("table2 body differs from set-up's")
		}
		return nil
	case readCursor:
		out, err := h.e.do(op, "GET", fmt.Sprintf("/v1/sweeps/%s/results?cursor=%d&limit=%d", st.sweepID, r.cursor, r.limit), nil)
		if err != nil {
			return err
		}
		if want := bytes.Join(st.rows[r.cursor:r.cursor+r.limit], nil); !bytes.Equal(out, want) {
			return fmt.Errorf("cursor %d limit %d: body differs from set-up's", r.cursor, r.limit)
		}
		return nil
	}
	return fmt.Errorf("unknown read kind %d", r.kind)
}

// publish records the job of a successful submit.
func (h *hotReads) publish(s submitted) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recent[h.n%jobLag] = s
	h.n++
}

// pick returns the job submitted lag successful submits before the latest
// (fewer when fewer have completed); ok is false before the first.
func (h *hotReads) pick(lag int) (s submitted, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return s, false
	}
	lag = min(lag, h.n-1)
	return h.recent[(h.n-1-lag)%jobLag], true
}
