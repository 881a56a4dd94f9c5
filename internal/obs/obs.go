// Package obs is the repo's metrics substrate: counters, gauges,
// fixed-bucket histograms, and lazily-sampled function metrics, collected
// in a Registry that renders the Prometheus text exposition format
// (version 0.0.4). It is deliberately dependency-free — stdlib only — so
// the simulator core, the sweep service, and the mcserved daemon can all
// report through it without pulling a client library into the module.
//
// A Counter increment is one atomic add and a Histogram observation is two
// atomic adds, a compare-and-swap on the sum, and a bucket search over a
// handful of bounds. That is cheap for one writer but not for several: an
// instrument shared by goroutines on different cores bounces its cache
// lines between them on every write. Per-cycle or per-instruction code
// must therefore tally into goroutine-local counters and merge them into
// the shared instruments rarely (Counter.Add, Histogram.ObserveN).
// Exposition walks every registered series under the registry lock, so
// scraping never tears a histogram.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n; negative n is ignored (counters only
// go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Bounds are the
// inclusive upper edges of the finite buckets; an implicit +Inf bucket
// catches everything beyond the last bound.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, the last is the +Inf bucket
	sumBits atomic.Uint64
	count   atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n samples of value v in one update — the merge step of
// a goroutine-local tally. The bucket counts and the count end up exactly
// as after n calls of Observe(v). The sum gains float64(n)*v, which equals
// n repeated additions whenever those are exact (integer samples below
// 2^53, as occupancy tallies are). n <= 0 records nothing.
func (h *Histogram) ObserveN(v float64, n int64) {
	if n <= 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(n)
	h.count.Add(n)
	d := float64(n) * v
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LinearBuckets returns n bounds starting at start, spaced by width.
func LinearBuckets(start, width float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// ExponentialBuckets returns n bounds starting at start, each factor
// times the previous.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DefaultDurationBuckets spans sub-millisecond to minutes in seconds —
// a reasonable default for request and job latencies.
func DefaultDurationBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}
}

// metricKind discriminates the exposition type of a series.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) exposition() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one registered metric: a family name plus rendered constant
// labels plus the instrument.
type series struct {
	kind   metricKind
	labels string // rendered `name="value",...` without braces, or ""

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	intFn   func() int64
	floatFn func() float64
}

// family groups every series sharing one metric name: they share a single
// HELP/TYPE header and must agree on the exposition type.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
	byKey  map[string]*series
}

// Registry holds registered metrics and renders them. The zero value is
// not usable; construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter registers (or returns the existing) counter under name with the
// given constant labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, kindGauge, labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram registers (or returns the existing) histogram with the given
// finite bucket bounds, which must be sorted ascending.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not strictly ascending: %v", name, bounds))
		}
	}
	s := r.register(name, help, kindHistogram, labels)
	if s.hist == nil {
		s.hist = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
	}
	return s.hist
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for exporting counters that already live elsewhere (an
// atomic.Int64 on a pool, a memo's hit count) without double accounting.
// fn must be monotonically non-decreasing and safe to call concurrently.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	s := r.register(name, help, kindCounterFunc, labels)
	s.intFn = fn
}

// GaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, kindGaugeFunc, labels)
	s.floatFn = fn
}

// register finds or creates the series for (name, labels). Re-registering
// an existing series with the same kind returns it (func metrics replace
// their sampler); a kind mismatch is a programming error and panics.
func (r *Registry) register(name, help string, kind metricKind, labels []Label) *series {
	if name == "" {
		panic("obs: empty metric name")
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.kind.exposition(), kind.exposition()))
	}
	s := f.byKey[key]
	if s == nil {
		s = &series{kind: kind, labels: key}
		f.byKey[key] = s
		f.series = append(f.series, s)
	}
	return s
}

// renderLabels renders constant labels in sorted order, Prometheus-escaped.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Name, l.Value)
	}
	return sb.String()
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WriteText renders every registered metric in the Prometheus text
// exposition format, in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	var sb strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.kind.exposition())
		for _, s := range f.series {
			writeSeries(&sb, f.name, s)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func writeSeries(sb *strings.Builder, name string, s *series) {
	switch s.kind {
	case kindCounter:
		writeSample(sb, name, s.labels, "", strconv.FormatInt(s.counter.Value(), 10))
	case kindGauge:
		writeSample(sb, name, s.labels, "", formatFloat(s.gauge.Value()))
	case kindCounterFunc:
		writeSample(sb, name, s.labels, "", strconv.FormatInt(s.intFn(), 10))
	case kindGaugeFunc:
		writeSample(sb, name, s.labels, "", formatFloat(s.floatFn()))
	case kindHistogram:
		h := s.hist
		var cum int64
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			writeSample(sb, name+"_bucket", s.labels, `le="`+formatFloat(b)+`"`, strconv.FormatInt(cum, 10))
		}
		cum += h.counts[len(h.bounds)].Load()
		writeSample(sb, name+"_bucket", s.labels, `le="+Inf"`, strconv.FormatInt(cum, 10))
		writeSample(sb, name+"_sum", s.labels, "", formatFloat(h.Sum()))
		writeSample(sb, name+"_count", s.labels, "", strconv.FormatInt(h.Count(), 10))
	}
}

// writeSample emits one exposition line, merging constant labels with an
// extra label (the histogram's le).
func writeSample(sb *strings.Builder, name, labels, extra, value string) {
	sb.WriteString(name)
	if labels != "" || extra != "" {
		sb.WriteByte('{')
		sb.WriteString(labels)
		if labels != "" && extra != "" {
			sb.WriteByte(',')
		}
		sb.WriteString(extra)
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(value)
	sb.WriteByte('\n')
}
