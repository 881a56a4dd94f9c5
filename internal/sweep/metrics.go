package sweep

import (
	"net/http"
	"time"

	"multicluster/internal/core"
	"multicluster/internal/obs"
)

// Metrics is the sweep service's observability surface: job-latency
// breakdown histograms, admission/eviction counters, cache/pool/journal
// samplers, and the simulator-core instruments fed by per-run probe
// tallies, all registered in one obs.Registry that the server exposes at
// GET /metrics.
//
// Construct with NewMetrics and hand to one Service via Config.Metrics —
// the scrape-time samplers bind to that service's pool, cache, and
// journal, so a Metrics instance must not be shared between services. A
// nil *Metrics disables everything (every method is nil-safe).
type Metrics struct {
	reg *obs.Registry

	// Job lifecycle.
	queueWait *obs.Histogram // submission → first execution
	runTime   *obs.Histogram // first execution → terminal state
	totalTime *obs.Histogram // submission → terminal state
	attempts  *obs.Histogram // executions per finished job
	backoff   *obs.Histogram // individual retry backoff sleeps
	evicted   *obs.Counter
	outcomes  map[JobState]*obs.Counter

	// HTTP-side classification.
	clientCanceled *obs.Counter

	// Core instruments, merged into once per simulated run (see runProbes).
	coreCycles    *obs.Counter
	coreReplays   *obs.Counter
	coreSquashed  *obs.Counter
	coreStalls    [core.NumStallCauses]*obs.Counter
	coreDist      [2]*obs.Counter // 0 single, 1 dual
	coreQueueOcc  [2]*obs.Histogram
	coreOpBufOcc  [2]*obs.Histogram
	coreResBufOcc [2]*obs.Histogram
}

// NewMetrics registers the sweep and core instrument families in reg and
// returns the bundle. Call once per service.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{reg: reg}

	dur := obs.DefaultDurationBuckets()
	m.queueWait = reg.Histogram("sweep_job_queue_wait_seconds",
		"Time a job spent admitted but not yet executing.", dur)
	m.runTime = reg.Histogram("sweep_job_run_seconds",
		"Time from a job's first execution to its terminal state, retries and backoff included.", dur)
	m.totalTime = reg.Histogram("sweep_job_total_seconds",
		"Time from submission to terminal state.", dur)
	m.attempts = reg.Histogram("sweep_job_attempts",
		"Executions a finished job needed (1 = no retries).", []float64{1, 2, 3, 4, 5, 8})
	m.backoff = reg.Histogram("sweep_retry_backoff_seconds",
		"Individual backoff sleeps before transient-failure retries.", dur)
	m.evicted = reg.Counter("sweep_jobs_evicted_total",
		"Finished jobs evicted from the registry by the retention bound.")
	m.outcomes = make(map[JobState]*obs.Counter)
	for _, st := range []JobState{JobDone, JobFailed, JobCanceled} {
		m.outcomes[st] = reg.Counter("sweep_jobs_finished_total",
			"Jobs reaching a terminal state, by outcome.", obs.L("state", string(st)))
	}
	m.clientCanceled = reg.Counter("sweep_http_client_canceled_total",
		"Requests abandoned by the client (context canceled or deadline exceeded mid-computation).")

	m.coreCycles = reg.Counter("core_cycles_total",
		"Simulated machine cycles across all probed runs (cache hits never re-simulate).")
	m.coreReplays = reg.Counter("core_replays_total",
		"Instruction-replay exceptions across all probed runs.")
	m.coreSquashed = reg.Counter("core_replay_squashed_instructions_total",
		"Instructions squashed and refetched by replay exceptions.")
	for c := core.StallCause(0); c < core.NumStallCauses; c++ {
		m.coreStalls[c] = reg.Counter("core_fetch_stall_cycles_total",
			"Cycles the fetch stage made no progress, by cause.", obs.L("cause", c.String()))
	}
	m.coreDist[0] = reg.Counter("core_distributions_total",
		"Logical instructions distributed, by placement.", obs.L("kind", "single"))
	m.coreDist[1] = reg.Counter("core_distributions_total",
		"Logical instructions distributed, by placement.", obs.L("kind", "dual"))

	queueBuckets := []float64{0, 1, 2, 4, 8, 16, 32, 64, 96, 128}
	bufBuckets := []float64{0, 1, 2, 3, 4, 6, 8, 12, 16}
	for c := 0; c < 2; c++ {
		cl := obs.L("cluster", clusterLabel(c))
		m.coreQueueOcc[c] = reg.Histogram("core_dispatch_queue_occupancy",
			"Per-cycle dispatch-queue occupancy, sampled post-issue.", queueBuckets, cl)
		m.coreOpBufOcc[c] = reg.Histogram("core_operand_buffer_occupancy",
			"Per-cycle operand transfer-buffer occupancy.", bufBuckets, cl)
		m.coreResBufOcc[c] = reg.Histogram("core_result_buffer_occupancy",
			"Per-cycle result transfer-buffer occupancy.", bufBuckets, cl)
	}
	return m
}

func clusterLabel(c int) string {
	if c == 0 {
		return "0"
	}
	return "1"
}

// Registry returns the underlying registry (nil when m is nil).
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// Handler serves the registry in Prometheus text exposition format.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.reg.WriteText(w)
	})
}

// coreTally is one simulation's probe tally: plain counters owned by the
// goroutine that runs it, so the per-cycle probe touches no shared cache
// line. Occupancy is tallied by exact value — a queue holds at most
// QueueSize entries and a transfer buffer at most its depth — so bucketing
// waits until the merge.
type coreTally struct {
	cycles int64
	queue  [2][]int64 // queue[c][v]: cycles cluster c's dispatch queue held v entries
	opBuf  [2][]int64
	resBuf [2][]int64
}

func (t *coreTally) cycle(s core.CycleSample) {
	t.cycles++
	for c := 0; c < 2; c++ {
		t.queue[c] = bump(t.queue[c], s.Queue[c])
		t.opBuf[c] = bump(t.opBuf[c], s.OperandBuf[c])
		t.resBuf[c] = bump(t.resBuf[c], s.ResultBuf[c])
	}
}

// bump counts one occurrence of value v in h, growing h to cover v.
func bump(h []int64, v int) []int64 {
	if v >= len(h) {
		h = append(h, make([]int64, v+1-len(h))...)
	}
	h[v]++
	return h
}

// runProbes returns the core probes for one simulation and the flush that
// merges their tally into the shared core_* instruments. Call the flush
// once, when the run has ended, with its result (nil if it failed).
func (m *Metrics) runProbes() (*core.Probes, func(*Result)) {
	if m == nil {
		return nil, func(*Result) {}
	}
	t := new(coreTally)
	return &core.Probes{Cycle: t.cycle}, func(res *Result) { m.flushCore(t, res) }
}

// flushCore merges one run's tally: one Counter.Add per counter and one
// Histogram.ObserveN per distinct occupancy value. A run whose tally saw
// no cycle was served from the run memo and adds nothing. The stall,
// replay and distribution counters come from the run's Stats, which count
// exactly those events; a run that failed has no Stats and adds only what
// its probe saw.
func (m *Metrics) flushCore(t *coreTally, res *Result) {
	if t.cycles == 0 {
		return
	}
	m.coreCycles.Add(t.cycles)
	for c := 0; c < 2; c++ {
		observeTally(m.coreQueueOcc[c], t.queue[c])
		observeTally(m.coreOpBufOcc[c], t.opBuf[c])
		observeTally(m.coreResBufOcc[c], t.resBuf[c])
	}
	if res == nil {
		return
	}
	st := res.Stats.Stats
	for c, n := range [core.NumStallCauses]int64{
		core.StallICacheMiss: st.Fetch.ICacheMiss,
		core.StallMispredict: st.Fetch.Mispredict,
		core.StallQueueFull:  st.Fetch.QueueFull,
		core.StallRegsFull:   st.Fetch.RegsFull,
		core.StallReplay:     st.Fetch.Replay,
	} {
		m.coreStalls[c].Add(n)
	}
	m.coreReplays.Add(st.Replays)
	m.coreSquashed.Add(st.ReplayedInstructions)
	m.coreDist[0].Add(st.SingleDist)
	m.coreDist[1].Add(st.DualDist)
}

// observeTally merges an exact-value tally into h.
func observeTally(h *obs.Histogram, tally []int64) {
	for v, n := range tally {
		h.ObserveN(float64(v), n)
	}
}

// bindService registers the scrape-time samplers that read the service's
// own counters (pool, cache, journal, admission), called once from
// NewService.
func (m *Metrics) bindService(s *Service) {
	if m == nil {
		return
	}
	reg := m.reg
	reg.CounterFunc("sweep_jobs_submitted_total",
		"Jobs admitted by the service.", func() int64 { return s.submitted.Load() })
	reg.CounterFunc("sweep_jobs_shed_total",
		"Submissions refused by admission control.", func() int64 { return s.shed.Load() })
	reg.CounterFunc("sweep_retries_total",
		"Transient-failure retries across all jobs.", func() int64 { return s.retries.Load() })
	reg.GaugeFunc("sweep_jobs_live",
		"Admitted, unfinished jobs.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.live)
		})
	reg.GaugeFunc("sweep_jobs_retained",
		"Jobs currently held in the registry (live + retained finished).", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.jobs))
		})

	sweeps := s.sweeps
	reg.CounterFunc("sweep_sweeps_created_total",
		"Sweep resources registered (resumed ones included).", func() int64 { return sweeps.stats().Created })
	reg.CounterFunc("sweep_sweeps_resumed_total",
		"Sweeps re-materialized from the sweep journal at startup.", func() int64 { return sweeps.stats().Resumed })
	reg.GaugeFunc("sweep_sweeps_active",
		"Sweeps currently running.", func() float64 { return float64(sweeps.activeCount()) })
	for _, st := range []SweepState{SweepDone, SweepCanceled} {
		st := st
		reg.CounterFunc("sweep_sweeps_finished_total",
			"Sweeps reaching a terminal state, by outcome.", func() int64 {
				sweeps.mu.Lock()
				defer sweeps.mu.Unlock()
				return sweeps.states[st]
			}, obs.L("state", string(st)))
	}

	pool := s.pool
	reg.GaugeFunc("sweep_pool_workers", "Worker-pool size.",
		func() float64 { return float64(pool.Workers()) })
	reg.GaugeFunc("sweep_pool_tenants", "Tenants with queued work in the fair-queueing scheduler.",
		func() float64 { return float64(pool.Stats().Tenants) })
	reg.GaugeFunc("sweep_pool_queued", "Tasks waiting in the pool queue.",
		func() float64 { return float64(pool.Stats().Queued) })
	reg.GaugeFunc("sweep_pool_running", "Tasks currently executing.",
		func() float64 { return float64(pool.Stats().Running) })
	reg.CounterFunc("sweep_pool_completed_total", "Tasks finished, success or failure.",
		func() int64 { return pool.Stats().Completed })
	reg.CounterFunc("sweep_pool_failed_total", "Tasks that returned an error.",
		func() int64 { return pool.Stats().Failed })
	reg.CounterFunc("sweep_pool_panics_total", "Tasks that panicked.",
		func() int64 { return pool.Stats().Panics })

	cache := &s.cache
	reg.CounterFunc("sweep_cache_hits_total", "Requests served from the result cache.",
		func() int64 { return cache.Stats().Hits })
	reg.CounterFunc("sweep_cache_misses_total", "Requests that ran the computation.",
		func() int64 { return cache.Stats().Misses })
	reg.GaugeFunc("sweep_cache_entries", "Cached results (completed or in flight).",
		func() float64 { return float64(cache.Stats().Entries) })
	reg.CounterFunc("sweep_cache_journal_errors_total", "Results that could not be journaled.",
		func() int64 { return cache.Stats().JournalErrors })

	if j := s.journal; j != nil {
		reg.CounterFunc("sweep_journal_appends_total", "Successful journal appends.",
			func() int64 { return j.Stats().Appends })
		reg.CounterFunc("sweep_journal_append_errors_total", "Failed journal appends.",
			func() int64 { return j.Stats().AppendErrors })
		reg.GaugeFunc("sweep_journal_records", "Records live in the journal file.",
			func() float64 { return float64(j.Stats().Records) })
	}
}

// observeFinished records one job's latency breakdown at its terminal
// state.
func (m *Metrics) observeFinished(j *Job) {
	if m == nil {
		return
	}
	j.mu.Lock()
	state := j.state
	created, started, finished := j.created, j.started, j.finished
	attempts := j.attempts
	j.mu.Unlock()

	if c := m.outcomes[state]; c != nil {
		c.Inc()
	}
	m.totalTime.Observe(finished.Sub(created).Seconds())
	if !started.IsZero() {
		m.queueWait.Observe(started.Sub(created).Seconds())
		m.runTime.Observe(finished.Sub(started).Seconds())
	}
	if attempts > 0 {
		m.attempts.Observe(float64(attempts))
	}
}

// observeBackoff records one retry backoff sleep.
func (m *Metrics) observeBackoff(d time.Duration) {
	if m == nil {
		return
	}
	m.backoff.Observe(d.Seconds())
}

// observeEvicted counts registry evictions.
func (m *Metrics) observeEvicted(n int) {
	if m == nil {
		return
	}
	m.evicted.Add(int64(n))
}

// observeClientCanceled counts a request abandoned by its client.
func (m *Metrics) observeClientCanceled() {
	if m == nil {
		return
	}
	m.clientCanceled.Inc()
}
