package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"multicluster/internal/experiment"
	"multicluster/internal/sweep"
)

// probe is the counter state the traced run reads around its window.
type probe struct {
	stats     sweep.Stats
	memoHits  int64
	memoMiss  int64
	walks     int64
	queueWait map[float64]float64 // cumulative bucket counts by upper bound
	gcCPU     float64
	totalCPU  float64
}

func takeProbe(e *env) (probe, error) {
	p := probe{stats: e.svc.Stats(), walks: experiment.TraceGenerations()}
	p.memoHits, p.memoMiss = experiment.RunCacheStats()
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU, p.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	body, err := e.do(-1, "GET", "/metrics", nil)
	if err != nil {
		return p, fmt.Errorf("scraping /metrics: %w", err)
	}
	p.queueWait, err = histogramBuckets(strings.NewReader(string(body)), "sweep_job_queue_wait_seconds")
	return p, err
}

// histogramBuckets parses the cumulative buckets of one Prometheus
// histogram.
func histogramBuckets(r io.Reader, name string) (map[float64]float64, error) {
	out := map[float64]float64{}
	sc := bufio.NewScanner(r)
	prefix := name + "_bucket{"
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.Index(line, `le="`)
		j := strings.Index(line, `"}`)
		if i < 0 || j < i {
			continue
		}
		le := line[i+4 : j]
		bound := math.Inf(1)
		if le != "+Inf" {
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return nil, err
			}
			bound = v
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[j+2:]), 64)
		if err != nil {
			return nil, err
		}
		out[bound] = v
	}
	return out, sc.Err()
}

// bucketQuantile interpolates the q-quantile of the observations between
// two scrapes of a cumulative histogram.
func bucketQuantile(before, after map[float64]float64, q float64) float64 {
	var bounds []float64
	for b := range after {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0
	}
	total := after[bounds[len(bounds)-1]] - before[bounds[len(bounds)-1]]
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevBound, prevCount := 0.0, 0.0
	for _, b := range bounds {
		c := after[b] - before[b]
		if c >= rank {
			if math.IsInf(b, 1) {
				return prevBound
			}
			if c == prevCount {
				return b
			}
			return prevBound + (b-prevBound)*(rank-prevCount)/(c-prevCount)
		}
		prevBound, prevCount = b, c
	}
	return prevBound
}

// busySampler samples the pool's utilization while the window runs.
type busySampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []float64
}

func sampleBusy(svc *sweep.Service, every time.Duration) *busySampler {
	b := &busySampler{stop: make(chan struct{})}
	b.done.Add(1)
	go func() {
		defer b.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-b.stop:
				return
			case <-t.C:
				b.samples = append(b.samples, svc.Stats().Utilization)
			}
		}
	}()
	return b
}

// share stops the sampler and returns the mean utilization.
func (b *busySampler) share() float64 {
	close(b.stop)
	b.done.Wait()
	return newDist(b.samples).mean()
}

// ledgerRow is one layer of the ledger: its spans' self times.
type ledgerRow struct {
	name  string
	count int
	self  []float64 // µs
}

// layerView is what the per-layer metrics are computed from.
type layerView struct {
	spans []*span
	self  map[int64]time.Duration
	o     *outcome
}

// selfUS returns the self times of the named spans in µs, ledger ops only.
func (v layerView) selfUS(name string) []float64 {
	var out []float64
	for _, s := range v.spans {
		if s.Name == name && v.o.ledgerOp(s.Op) {
			out = append(out, float64(v.self[s.ID])/1e3)
		}
	}
	return out
}

// p50 of xs, or 0 when the layer did not run in this workload.
func p50or0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// ledger groups the ledger ops' spans by name.
func (v layerView) ledger() []ledgerRow {
	rows := map[string]*ledgerRow{}
	for _, s := range v.spans {
		if !v.o.ledgerOp(s.Op) || s.Op < 0 {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &ledgerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.self = append(r.self, float64(v.self[s.ID])/1e3)
	}
	var out []ledgerRow
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func writeLedger(w io.Writer, workload string, rows []ledgerRow) {
	fmt.Fprintf(w, "layer ledger, %s (self time per span, µs)\n", workload)
	fmt.Fprintf(w, "  %-22s %8s %12s %10s %10s %10s\n", "span", "count", "total_ms", "mean", "p50", "p90")
	for _, r := range rows {
		d := newDist(r.self)
		sum := d.mean() * float64(d.n())
		p90 := math.NaN()
		if _, v, ok := tailQuantile(d.sorted, 0.90); ok {
			p90 = v
		}
		fmt.Fprintf(w, "  %-22s %8d %12.2f %10.1f %10.1f %10.1f\n", r.name, r.count, sum/1e3, d.mean(), d.p(0.5), p90)
	}
}

// opSpans groups the spans of each op.
func opSpans(spans []*span) map[int64][]*span {
	out := map[int64][]*span{}
	for _, s := range spans {
		if s.Op >= 0 {
			out[s.Op] = append(out[s.Op], s)
		}
	}
	return out
}

// coveredPerOp is the time the layers account for in each ledger op, by
// the blocking steps of the workload's operation:
//   - solo-cells: the submit request, the job's queue wait, the replayed
//     compile, materialize, core and journal work, and the final poll;
//   - sweep-grid: the sweep's POST, then the replayed groups laid out on
//     the pool's workers longest first (their makespan);
//   - hot-reads: the request's client span (handler plus transport).
func coveredPerOp(workload string, spans []*span, o *outcome) []float64 {
	byOp := opSpans(spans)
	var out []float64
	sum := func(ss []*span, names ...string) time.Duration {
		var d time.Duration
		for _, s := range ss {
			for _, n := range names {
				if s.Name == n {
					d += s.dur()
				}
			}
		}
		return d
	}
	cold := []string{"experiment.compile", "trace.materialize", "core.run", "core.runbatch", "journal.append"}
	switch workload {
	case "solo-cells":
		for _, c := range o.cold {
			ss := byOp[c.op]
			var clients []*span
			for _, s := range ss {
				if strings.HasPrefix(s.Name, "client.") {
					clients = append(clients, s)
				}
			}
			if len(clients) == 0 {
				continue
			}
			sort.Slice(clients, func(i, j int) bool { return clients[i].Start < clients[j].Start })
			d := clients[0].dur() + clients[len(clients)-1].dur() + sum(ss, cold...)
			if !c.started.IsZero() {
				d += c.started.Sub(c.created)
			}
			out = append(out, ms(d))
		}
	case "sweep-grid":
		for _, s := range o.sweeps {
			ss := byOp[s.op]
			var post time.Duration
			var groups []time.Duration
			for _, sp := range ss {
				switch sp.Name {
				case "client.POST":
					post = sp.dur()
				case "replay.group":
					var kids []*span
					for _, k := range ss {
						if k.Parent == sp.ID {
							kids = append(kids, k)
						}
					}
					groups = append(groups, sum(kids, cold...))
				}
			}
			out = append(out, ms(post+makespan(groups, workers())))
		}
	default:
		for _, r := range o.reads {
			out = append(out, ms(sum(byOp[r.op], "client.GET", "client.POST")))
		}
	}
	return out
}

// makespan lays jobs out on n workers, longest first, and returns when the
// last worker finishes.
func makespan(jobs []time.Duration, n int) time.Duration {
	sorted := append([]time.Duration(nil), jobs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	load := make([]time.Duration, n)
	for _, j := range sorted {
		k := 0
		for i := range load {
			if load[i] < load[k] {
				k = i
			}
		}
		load[k] += j
	}
	var m time.Duration
	for _, l := range load {
		m = max(m, l)
	}
	return m
}

// layerMetrics computes the per-layer metrics of a traced run. A layer
// the workload does not exercise reports 0.
func layerMetrics(workload string, spans []*span, o *outcome, rp *replayer, before, after probe, busyShare float64, ref *detail) map[string]float64 {
	v := layerView{spans: spans, self: selfTimes(spans), o: o}
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	byID := make(map[int64]*span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var handler, transport []float64
	for _, s := range spans {
		if s.Name != "http.handler" || s.Op < 0 {
			continue
		}
		m["http.requests"]++
		switch {
		case s.Status == 429:
			m["http.status_429"]++
		case s.Status >= 500:
			m["http.status_5xx"]++
		}
		if !o.ledgerOp(s.Op) {
			continue
		}
		handler = append(handler, float64(s.dur())/1e3)
		if c := byID[s.Parent]; c != nil {
			transport = append(transport, float64(c.dur()-s.dur())/1e3)
		}
	}
	m["http.handler_us_p50"] = p50or0(handler)
	if _, p99, ok := tailQuantile(newDist(handler).sorted, 0.99); ok {
		m["http.handler_us_p99"] = p99
	}
	m["http.transport_us_p50"] = p50or0(transport)

	us := func(name string) float64 { return p50or0(v.selfUS(name)) }
	msOf := func(name string) float64 {
		var d []float64
		for _, s := range spans {
			if s.Name == name {
				d = append(d, ms(s.dur()))
			}
		}
		return p50or0(d)
	}
	m["spec.normalize_us"] = us("spec.normalize")
	m["spec.hash_us"] = us("spec.hash")
	m["workload.byname_us"] = us("workload.byname")
	m["cache.lookup_us"] = us("cache.lookup")
	hits := after.stats.Cache.Hits - before.stats.Cache.Hits
	misses := after.stats.Cache.Misses - before.stats.Cache.Misses
	m["cache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))

	m["pool.queue_wait_ms_p50"] = 1e3 * bucketQuantile(before.queueWait, after.queueWait, 0.50)
	m["pool.queue_wait_ms_p90"] = 1e3 * bucketQuantile(before.queueWait, after.queueWait, 0.90)
	m["pool.busy_share"] = busyShare

	m["journal.append_ms_p50"] = msOf("journal.append")
	if after.stats.Journal != nil && before.stats.Journal != nil {
		m["journal.appends"] = float64(after.stats.Journal.Appends - before.stats.Journal.Appends)
	}
	m["sweeps.first_row_ms"] = o.extra["sweeps.first_row_ms"]
	m["sweeps.rows_per_s"] = o.extra["sweeps.rows_per_s"]

	m["experiment.compile_ms"] = msOf("experiment.compile")
	memoHits := after.memoHits - before.memoHits
	memoMiss := after.memoMiss - before.memoMiss
	m["experiment.memo_hit_ratio"] = ratio(float64(memoHits), float64(memoHits+memoMiss))
	m["experiment.trace_walks_per_group"] = ratio(float64(after.walks-before.walks), float64(rp.groups))
	m["trace.profile_ms"] = msOf("trace.profile")
	m["partition.partition_ms"] = msOf("partition.partition")
	m["regalloc.allocate_ms"] = msOf("regalloc.allocate")
	m["codegen.lower_ms"] = msOf("codegen.lower")
	m["trace.materialize_ms"] = msOf("trace.materialize")
	m["trace.materialize_ns_per_instr"] = ratio(float64(rp.matTime), float64(rp.matInstrs))
	m["core.ns_per_instr"] = ratio(float64(rp.soloTime), float64(rp.soloInstrs))
	m["core.batch_ns_per_instr"] = ratio(float64(rp.batchTime), float64(rp.batchInstrs))
	instrs := float64(rp.soloInstrs + rp.batchInstrs)
	m["core.allocs_per_instr"] = ratio(float64(rp.mallocs), instrs)
	m["core.bytes_per_instr"] = ratio(float64(rp.bytes), instrs)
	m["core.gc_cpu_share"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)

	m["loadgen.late_ms_p99"] = o.extra["loadgen.late_ms_p99"]
	m["loadgen.backlog_max"] = o.extra["loadgen.backlog_max"]
	if ref != nil && ref.PerOpMeanMS > 0 {
		m["spans.unattributed_share"] = 1 - newDist(coveredPerOp(workload, spans, o)).mean()/ref.PerOpMeanMS
		m["spans.overhead_share"] = newDist(o.perOp).mean()/ref.PerOpMeanMS - 1
	}
	m["replay.stats_mismatches"] = float64(rp.mismatches)
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
