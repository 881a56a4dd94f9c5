package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestRegistryIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", L("k", "v"))
	b := r.Counter("x_total", "x", L("k", "v"))
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	if c := r.Counter("x_total", "x", L("k", "w")); c == a {
		t.Fatal("different labels shared one series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_sum 56.05",
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionLabelsAndFuncs(t *testing.T) {
	r := NewRegistry()
	r.Counter("stalls_total", "stalls by cause", L("cause", "icache_miss")).Add(7)
	r.CounterFunc("pool_completed_total", "completed", func() int64 { return 42 })
	r.GaugeFunc("pool_running", "running", func() float64 { return 2 })
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP stalls_total stalls by cause",
		"# TYPE stalls_total counter",
		`stalls_total{cause="icache_miss"} 7`,
		"pool_completed_total 42",
		"# TYPE pool_running gauge",
		"pool_running 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestBucketHelpers(t *testing.T) {
	if got := LinearBuckets(0, 2, 3); got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("LinearBuckets = %v", got)
	}
	if got := ExponentialBuckets(1, 4, 3); got[0] != 1 || got[1] != 4 || got[2] != 16 {
		t.Fatalf("ExponentialBuckets = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds did not panic")
		}
	}()
	NewRegistry().Histogram("bad", "", []float64{2, 1})
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	h := r.Histogram("v", "", []float64{1, 2, 3})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 5))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

// TestObserveNMatchesRepeatedObserve: one ObserveN(v, n) must leave the
// buckets, the count and the sum bits exactly where n Observe(v) calls
// leave them — the guarantee a goroutine-local tally relies on when it
// merges into a shared histogram.
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	bounds := []float64{0, 1, 2, 4, 8}
	cases := []struct {
		name string
		v    float64
		n    int64
	}{
		{"on a bound", 2, 7},
		{"between bounds", 3, 5},
		{"zero", 0, 11},
		{"past the last bound", 9, 3},
		{"far past the last bound", 1e6, 1000},
		{"fraction", 0.5, 6},
		{"n zero", 4, 0},
		{"n negative", 4, -3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			merged := r.Histogram("merged", "", bounds)
			repeated := r.Histogram("repeated", "", bounds)
			// Both start from the same non-empty state.
			for _, h := range []*Histogram{merged, repeated} {
				h.Observe(1)
				h.Observe(16)
			}
			merged.ObserveN(tc.v, tc.n)
			for i := int64(0); i < tc.n; i++ {
				repeated.Observe(tc.v)
			}
			for i := range merged.counts {
				if a, b := merged.counts[i].Load(), repeated.counts[i].Load(); a != b {
					t.Errorf("bucket %d: ObserveN %d, repeated Observe %d", i, a, b)
				}
			}
			if a, b := merged.Count(), repeated.Count(); a != b {
				t.Errorf("count: ObserveN %d, repeated Observe %d", a, b)
			}
			if a, b := merged.sumBits.Load(), repeated.sumBits.Load(); a != b {
				t.Errorf("sum bits: ObserveN %v, repeated Observe %v", merged.Sum(), repeated.Sum())
			}
			if tc.n <= 0 && merged.Count() != 2 {
				t.Errorf("ObserveN(%v, %d) recorded samples: count %d, want 2", tc.v, tc.n, merged.Count())
			}
		})
	}
}
