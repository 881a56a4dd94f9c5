package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"multicluster/internal/core"
	"multicluster/internal/experiment"
	"multicluster/internal/sweep"
)

func init() {
	// Tests run in the benchmark's directory, one below the repository root.
	repoRoot = ".."
}

// TestMain lets the test binary stand in for perfbench as the child
// process of a timed set-up round.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "setup" {
		os.Exit(setupMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestTimeSetup times one set-up round in a child process: it must come
// back ready, with the golden anchor matched.
func TestTimeSetup(t *testing.T) {
	w, _ := workloadByName("solo-cells")
	secs, err := timeSetup(config{workload: w, seed: 99, seconds: 0.2, out: t.TempDir()}, testLog{t})
	if err != nil {
		t.Fatal(err)
	}
	if secs <= 0 {
		t.Errorf("set-up took %g s", secs)
	}
}

func TestPlanDeterministic(t *testing.T) {
	a, b := newPlan(7, 15), newPlan(7, 15)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different plans")
	}
	for k := 0; k < 50; k++ {
		if !reflect.DeepEqual(soloSpec(7, k), soloSpec(7, k)) || !reflect.DeepEqual(sweepGrid(7, k), sweepGrid(7, k)) {
			t.Fatalf("spec %d differs between two plans of one seed", k)
		}
	}
	c := newPlan(8, 15)
	if reflect.DeepEqual(a.reads, c.reads) {
		t.Error("a new seed gave the same arrival times")
	}
	if soloSpec(7, 0).Seed == soloSpec(8, 0).Seed || sweepGrid(7, 0).Seeds[0] == sweepGrid(8, 0).Seeds[0] {
		t.Error("a new seed gave the same simulation seeds")
	}
}

func TestPlanSeedsAreFresh(t *testing.T) {
	seen := map[int64]bool{}
	for k := 0; k < 2000; k++ {
		s := soloSpec(3, k).Seed
		if seen[s] || s < simSeedBase {
			t.Fatalf("cell %d reuses seed %d or comes near the small seeds", k, s)
		}
		seen[s] = true
	}
}

func TestReadPlanArrivals(t *testing.T) {
	p := newPlan(5, 10)
	base := p.reads[0]
	if base.rate != baseRate {
		t.Fatalf("first step at %g, want the base rate %g", base.rate, baseRate)
	}
	var last time.Duration
	for i, op := range base.ops {
		if op.at < last || op.at >= base.dur {
			t.Fatalf("op %d due at %v: arrivals must rise within the step", i, op.at)
		}
		last = op.at
	}
	want := baseRate * base.dur.Seconds()
	if got := float64(len(base.ops)); math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Errorf("%g arrivals in the base step, want about %g", got, want)
	}
}

func TestTailQuantileRule(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		want   float64
		q      float64
		wantOK bool
	}{
		{1000, 0.99, 0.99, true},
		{2000, 0.99, 0.99, true},
		{500, 0.99, 0.98, true},
		{100, 0.90, 0.90, true},
		{96, 0.90, 1 - 10.0/96, true},
		{20, 0.90, 0.5, true},
		{19, 0.90, 1 - 10.0/19, false},
		{0, 0.90, 0, false},
	} {
		q, v, ok := tailQuantile(samples(tc.n), tc.want)
		if ok != tc.wantOK || math.Abs(q-tc.q) > 1e-12 {
			t.Errorf("n=%d want p%g: got q=%g ok=%v, want q=%g ok=%v", tc.n, 100*tc.want, q, ok, tc.q, tc.wantOK)
			continue
		}
		if ok {
			// At least ten samples lie beyond the reported value.
			beyond := 0
			for _, x := range samples(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, 100*q)
			}
		}
	}
}

// TestOpenLoopLatencyFromSchedule stalls the first requests and checks
// that the requests queued behind them are charged from their due time.
func TestOpenLoopLatencyFromSchedule(t *testing.T) {
	const stall = 40 * time.Millisecond
	ops := make([]readOp, 6)
	for i := range ops {
		ops[i].at = time.Duration(i) * time.Millisecond
	}
	res := openLoop(ops, 10*time.Millisecond, 1, 1000, func(op int64, _ readOp) error {
		if op == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(res.lat) != len(ops) {
		t.Fatalf("%d latencies for %d ops", len(res.lat), len(ops))
	}
	for i := 1; i < len(ops); i++ {
		// Op i was due i ms after op 0 but could only be sent once the
		// stall ended.
		wantLate := ms(stall - ops[i].at)
		if res.late[i] < wantLate-1 || res.lat[i] < wantLate-1 {
			t.Errorf("op %d: late %.1f ms, latency %.1f ms; want both at least %.1f ms", i, res.late[i], res.lat[i], wantLate)
		}
	}
	if res.backlogMax < len(ops)-2 {
		t.Errorf("backlog peaked at %d, want the %d ops queued behind the stall", res.backlogMax, len(ops)-1)
	}
}

func TestMaxRate(t *testing.T) {
	step := func(rate, served float64, pass bool) stepResult {
		return stepResult{rate: rate, served: served, pass: pass}
	}
	// Never saturated: the top rate.
	if got := maxRate([]stepResult{step(300, 300, true), step(1000, 990, true)}); got != 1000 {
		t.Errorf("all steps pass: got %g, want 1000", got)
	}
	// Saturated from the third step on: the mean they served.
	if got := maxRate([]stepResult{step(300, 300, true), step(1000, 990, true), step(1500, 1240, false), step(2000, 1260, false)}); got != 1250 {
		t.Errorf("got %g, want the 1250/s the saturated steps served", got)
	}
	// A failure below the top passing step does not end the search.
	if got := maxRate([]stepResult{step(300, 300, true), step(500, 480, false), step(700, 690, true), step(900, 800, false)}); got != 800 {
		t.Errorf("got %g, want 800", got)
	}
	// Never below the rate that passed.
	if got := maxRate([]stepResult{step(1000, 990, true), step(1500, 900, false)}); got != 1000 {
		t.Errorf("got %g, want 1000", got)
	}
}

func TestOpenLoopBacklog(t *testing.T) {
	// Forty requests due at once in a 20 ms step (2000/s) on one
	// connection, each taking 2 ms: about thirty are still queued when the
	// schedule ends. At 2000/s a 10 ms limit allows twenty, a 100 ms limit
	// two hundred.
	ops := make([]readOp, 40)
	slow := func(int64, readOp) error { time.Sleep(2 * time.Millisecond); return nil }
	if res := openLoop(ops, 20*time.Millisecond, 1, 10, slow); res.pass {
		t.Errorf("backlog of %d with a 10 ms limit passed", res.backlogEnd)
	}
	if res := openLoop(ops, 20*time.Millisecond, 1, 100, slow); !res.pass {
		t.Errorf("backlog of %d with a 100 ms limit failed", res.backlogEnd)
	}
}

func TestSameStatsCatchesPerturbation(t *testing.T) {
	spec := sweep.JobSpec{Benchmark: "compress", Machine: "dual", Scheduler: "local", Seed: simSeedBase + 1, Instructions: 5000}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg, opts, err := norm.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	rr, err := experiment.CachedRun(norm.Benchmark, norm.Scheduler, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := rr.Stats.Snapshot()
	raw, err := json.MarshalIndent(sweep.Result{Spec: norm, Stats: snap}, "  ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := sameStats(raw, snap); err != nil {
		t.Fatalf("identical stats reported as different: %v", err)
	}
	for name, perturb := range map[string]func(*core.StatsSnapshot){
		"cycles":          func(s *core.StatsSnapshot) { s.Cycles++ },
		"cluster issue":   func(s *core.StatsSnapshot) { s.Cluster[1].IssuedUops-- },
		"derived ipc":     func(s *core.StatsSnapshot) { s.IPC = math.Nextafter(s.IPC, 1) },
		"dcache accesses": func(s *core.StatsSnapshot) { s.DCache.Accesses++ },
	} {
		p := snap
		perturb(&p)
		if err := sameStats(raw, p); err == nil {
			t.Errorf("perturbed %s not caught", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []*span{
		{ID: 0, Parent: -1, Name: "client.GET", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "http.handler", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "x", Start: 20, End: 50},
		{ID: 3, Parent: 1, Name: "y", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{0: 60, 1: 14, 2: 30, 3: 6} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
}

func TestMakespan(t *testing.T) {
	jobs := []time.Duration{2, 4, 3, 3}
	if got := makespan(jobs, 2); got != 6 {
		t.Errorf("makespan %v, want 6", got)
	}
	if got := makespan(jobs, 1); got != 12 {
		t.Errorf("makespan on one worker %v, want 12", got)
	}
}

func TestBucketQuantile(t *testing.T) {
	before := map[float64]float64{0.001: 1, 0.01: 1, math.Inf(1): 1}
	after := map[float64]float64{0.001: 1, 0.01: 11, math.Inf(1): 11}
	if got := bucketQuantile(before, after, 0.5); math.Abs(got-0.0055) > 1e-12 {
		t.Errorf("p50 %g, want 0.0055", got)
	}
	text := "sweep_job_queue_wait_seconds_bucket{le=\"0.001\"} 3\nsweep_job_queue_wait_seconds_bucket{le=\"+Inf\"} 4\nother 1\n"
	b, err := histogramBuckets(strings.NewReader(text), "sweep_job_queue_wait_seconds")
	if err != nil || b[0.001] != 3 || b[math.Inf(1)] != 4 || len(b) != 2 {
		t.Errorf("parsed %v, %v", b, err)
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	fp := hostFingerprint()
	a := detail{Workload: "hot-reads", Fingerprint: fp, Metrics: map[string]float64{"op_p50_ms": 1}}
	b := a
	b.Metrics = map[string]float64{"op_p50_ms": 1.5}
	if out := compare(a, b, map[string]float64{"op_p50_ms": 0.1}); !strings.Contains(out, "WORSE") {
		t.Errorf("50%% slower not flagged:\n%s", out)
	}
	b.Fingerprint.CPU = "another CPU"
	out := compare(a, b, map[string]float64{"op_p50_ms": 0.1})
	if !strings.HasPrefix(out, "not comparable") || strings.Contains(out, "WORSE") {
		t.Errorf("results from two hosts compared:\n%s", out)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names workloads the
// program has and exactly the metrics it reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the program lacks", w.Name)
		}
	}
	check := func(kind string, names []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(got) != len(names) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(names))
		}
		for i, m := range names {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, m)
			}
		}
	}
	var e2e []struct{ Name, Unit, Better string }
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, struct{ Name, Unit, Better string }{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, spec.PerLayer)
}

// TestSmoke runs every workload briefly, untraced, plus a traced
// solo-cells, and checks that each run is correct and reports every
// metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the system under load")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && w.name != "solo-cells" {
				continue
			}
			c := config{workload: w, seed: 99, seconds: 0.2, trace: traced, out: t.TempDir(), setups: 1}
			// Set-up rounds and the untraced reference run in-process here;
			// a real run makes them in child processes.
			c.setupRound = func(c config) (float64, error) {
				t0 := time.Now()
				e, _, anchorErr, err := setUp(c, nil, newPlan(c.seed, c.seconds))
				if err != nil {
					return 0, err
				}
				secs := time.Since(t0).Seconds()
				e.close()
				return secs, anchorErr
			}
			c.reference = func(rc config) (*detail, error) {
				rc.trace = false
				return measure(rc, testLog{t})
			}
			d, err := measure(c, testLog{t})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !d.Correct || d.Failed != 0 || d.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w.name, traced, d.Correct, d.Attempted, d.Failed, d.Errors)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, m := range defs {
				if _, ok := d.Metrics[m.name]; !ok {
					t.Errorf("%s traced=%v: no %s", w.name, traced, m.name)
				}
			}
			if !traced && d.Metrics["op_p50_ms"] <= 0 {
				t.Errorf("%s: op_p50_ms %g", w.name, d.Metrics["op_p50_ms"])
			}
		}
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
