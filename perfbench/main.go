// Command perfbench is the repository's benchmark. It drives an in-process
// sweep.Service behind sweep.Server over loopback HTTP through one named
// workload, checks every answer, and prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench -workload solo-cells -seed 1 -seconds 12 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics of a traced run of the same plan, and the
// spans and the layer ledger are written next to the detail file.
//
//	./perfbench compare A.json B.json
//
// compares two detail files, refusing when their host fingerprints differ.
// An untraced run times its set-up rounds in child processes started as
//
//	./perfbench setup -workload solo-cells -seed 1 -seconds 12
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
		case "setup":
			os.Exit(setupMain(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one reported metric; the lists mirror BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

var perLayer = []metricDef{
	{"http.handler_us_p50", "us", "lower"},
	{"http.handler_us_p99", "us", "lower"},
	{"http.transport_us_p50", "us", "lower"},
	{"http.requests", "count", "higher"},
	{"http.status_429", "count", "lower"},
	{"http.status_5xx", "count", "lower"},
	{"spec.normalize_us", "us", "lower"},
	{"spec.hash_us", "us", "lower"},
	{"workload.byname_us", "us", "lower"},
	{"cache.lookup_us", "us", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"pool.queue_wait_ms_p50", "ms", "lower"},
	{"pool.queue_wait_ms_p90", "ms", "lower"},
	{"pool.busy_share", "ratio", "higher"},
	{"journal.append_ms_p50", "ms", "lower"},
	{"journal.appends", "count", "higher"},
	{"sweeps.first_row_ms", "ms", "lower"},
	{"sweeps.rows_per_s", "1/s", "higher"},
	{"experiment.compile_ms", "ms", "lower"},
	{"experiment.memo_hit_ratio", "ratio", "higher"},
	{"experiment.trace_walks_per_group", "ratio", "lower"},
	{"trace.profile_ms", "ms", "lower"},
	{"partition.partition_ms", "ms", "lower"},
	{"regalloc.allocate_ms", "ms", "lower"},
	{"codegen.lower_ms", "ms", "lower"},
	{"trace.materialize_ms", "ms", "lower"},
	{"trace.materialize_ns_per_instr", "ns/instr", "lower"},
	{"core.ns_per_instr", "ns/instr", "lower"},
	{"core.batch_ns_per_instr", "ns/instr", "lower"},
	{"core.allocs_per_instr", "1/instr", "lower"},
	{"core.bytes_per_instr", "B/instr", "lower"},
	{"core.gc_cpu_share", "ratio", "lower"},
	{"loadgen.late_ms_p99", "ms", "lower"},
	{"loadgen.backlog_max", "count", "lower"},
	{"spans.unattributed_share", "ratio", "lower"},
	{"spans.overhead_share", "ratio", "lower"},
	{"replay.stats_mismatches", "count", "lower"},
}

// detail is everything a run measured, stamped with the host it ran on.
// It is written as <workload>-seed<n>-trace<t>.json in the output dir.
type detail struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Errors      []string           `json:"errors,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
	SetupS      []float64          `json:"setup_s_rounds"`
	Timings     map[string]timing  `json:"timings"`
	Extra       map[string]float64 `json:"extra"`
	PerOpMeanMS float64            `json:"per_op_mean_ms"`
	Spans       string             `json:"spans,omitempty"`
}

type config struct {
	workload workloadDef
	seed     int64
	seconds  float64
	trace    bool
	out      string
	setups   int
	// setupRound times one set-up round of an untraced run; nil means a
	// child process (see timeSetup).
	setupRound func(config) (float64, error)
	// reference makes the untraced run a traced run compares itself
	// with; nil means a child process (see runReference).
	reference func(config) (*detail, error)
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: solo-cells, sweep-grid or hot-reads")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same operation plan")
	seconds := fs.Float64("seconds", 12, "length of the timed window")
	trace := fs.Int("trace", 0, "1 for the traced run that reports the per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench-out", "directory for detail files, spans, ledgers and scratch data")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return config{}, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return config{}, fmt.Errorf("bad -seconds or -trace")
	}
	return config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, setups: setupRounds}, nil
}

// setupRounds is how many times an untraced run times a set-up, each in a
// fresh process; setup_s is the median.
const setupRounds = 7

// base names the files a run writes.
func (c config) base() string {
	t := 0
	if c.trace {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", c.workload.name, c.seed, t)
}

// watchdog bounds a run: one that has not finished by then is stuck, and
// exits without a result.
const watchdog = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	stuck := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "perfbench: no result after %v, giving up\n", watchdog)
		os.Exit(3)
	})
	defer stuck.Stop()
	d, err := measure(c, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeJSON(filepath.Join(c.out, c.base()+".json"), d); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{d.Correct, d.Attempted, d.Failed, map[string]value{}}
	for _, m := range defs {
		line.Metrics[m.name] = value{d.Metrics[m.name], m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !d.Correct {
		return 1
	}
	return 0
}

// measure sets the system up, runs the workload's window, checks it, and
// (traced) replays it layer by layer.
func measure(c config, stderr io.Writer) (*detail, error) {
	d := &detail{
		Workload:    c.workload.name,
		Seed:        c.seed,
		Seconds:     c.seconds,
		Trace:       c.trace,
		Fingerprint: hostFingerprint(),
		Metrics:     map[string]float64{},
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d, %gs, trace %v on %s (nproc %d, GOMAXPROCS %d, %s, kernel %s)\n",
		c.workload.name, c.seed, c.seconds, c.trace, d.Fingerprint.CPU, d.Fingerprint.NProc,
		d.Fingerprint.GOMAXPROCS, d.Fingerprint.Go, d.Fingerprint.Kernel)
	p := newPlan(c.seed, c.seconds)

	// The traced run compares itself with an untraced run of the same
	// plan, made in a child process so that no process-wide memo carries
	// over between the two.
	var ref *detail
	if c.trace {
		run := c.reference
		if run == nil {
			run = func(c config) (*detail, error) { return runReference(c, stderr) }
		}
		var err error
		if ref, err = run(c); err != nil {
			return nil, err
		}
	}
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}

	// setup_s: each round is a fresh process, timed from its start to
	// the system being ready for the first timed operation.
	if !c.trace {
		timeRound := c.setupRound
		if timeRound == nil {
			timeRound = func(c config) (float64, error) { return timeSetup(c, stderr) }
		}
		for r := 0; r < c.setups; r++ {
			d.Attempted++
			secs, err := timeRound(c)
			if err != nil {
				d.Failed++
				d.Errors = append(d.Errors, fmt.Sprintf("set-up round %d: %v", r, err))
				continue
			}
			d.SetupS = append(d.SetupS, secs)
		}
	}
	// The run's own set-up, untimed; its anchor is checked too.
	e, state, anchorErr, err := setUp(c, tr, p)
	if err != nil {
		return nil, err
	}
	defer e.close()
	d.Attempted++
	if anchorErr != nil {
		d.Failed++
		d.Errors = append(d.Errors, anchorErr.Error())
	}

	var before probe
	var busy *busySampler
	if c.trace {
		var err error
		if before, err = takeProbe(e); err != nil {
			return nil, err
		}
		busy = sampleBusy(e.svc, 100*time.Millisecond)
	}
	o := c.workload.run(e, p, state, c)
	d.Attempted += o.attempted
	d.Failed += o.failed
	d.Errors = append(d.Errors, o.errs...)
	d.Timings = o.timings
	d.Extra = o.extra
	d.PerOpMeanMS = newDist(o.perOp).mean()

	if !c.trace {
		lat := newDist(o.lat)
		d.Metrics["setup_s"] = median(d.SetupS)
		d.Metrics["op_p50_ms"] = lat.p(0.5)
		d.Metrics["ops_per_s"] = o.opsPerS
		d.Metrics["peak_rss_mb"] = peakRSSMiB()
	} else {
		busyShare := busy.share()
		after, err := takeProbe(e)
		if err != nil {
			return nil, err
		}
		rp, err := newReplayer(tr, e.svc, e.dir)
		if err != nil {
			return nil, err
		}
		replayAll(rp, o, state, d)
		rp.close()
		d.Attempted += rp.cells
		d.Failed += rp.mismatches
		d.Errors = append(d.Errors, rp.errs...)
		spans := tr.snapshot()
		d.Metrics = layerMetrics(c.workload.name, spans, o, rp, before, after, busyShare, ref)
		d.Spans = filepath.Join(c.out, c.base()+".spans.jsonl")
		if err := writeSpans(d.Spans, spans); err != nil {
			return nil, err
		}
		var led strings.Builder
		writeLedger(&led, c.workload.name, layerView{spans: spans, self: selfTimes(spans), o: o}.ledger())
		fmt.Fprintf(&led, "  per-op: untraced mean %.3f ms, traced mean %.3f ms, layers cover %.3f ms\n",
			ref.PerOpMeanMS, d.PerOpMeanMS, newDist(coveredPerOp(c.workload.name, spans, o)).mean())
		if err := os.WriteFile(filepath.Join(c.out, c.base()+".ledger.txt"), []byte(led.String()), 0o644); err != nil {
			return nil, err
		}
		io.WriteString(stderr, led.String())
	}
	for _, m := range []map[string]float64{d.Metrics, d.Extra} {
		for k, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				m[k] = 0 // too few samples to say
			}
		}
	}
	d.Correct = d.Failed == 0
	report(stderr, c, d)
	return d, nil
}

// replayAll replays the window's cold work and base-rate submits.
func replayAll(rp *replayer, o *outcome, state any, d *detail) {
	for _, cell := range o.cold {
		if err := rp.cell(cell); err != nil {
			rp.mismatch("cell %d: %v", cell.op, err)
		}
	}
	for _, s := range o.sweeps {
		if err := rp.sweep(s); err != nil {
			rp.mismatch("sweep %d: %v", s.op, err)
		}
	}
	if st, ok := state.(*hotState); ok {
		for _, r := range o.reads {
			if r.kind == readSubmit {
				if err := rp.read(r.op, st.specs[r.spec]); err != nil {
					d.Failed++
					d.Errors = append(d.Errors, err.Error())
				}
			}
		}
	}
}

// setUp sets the system up once: the service with its journals and
// listener, the golden anchor and the workload's pre-fill. A wrong
// anchor comes back as anchorErr; err means there is no system to run.
func setUp(c config, tr *tracer, p plan) (e *env, state any, anchorErr, err error) {
	if e, err = newEnv(filepath.Join(c.out, "work"), tr); err != nil {
		return nil, nil, nil, err
	}
	anchorErr = checkAnchor(e)
	if c.workload.prefill != nil {
		if state, err = c.workload.prefill(e, p); err != nil {
			e.close()
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return e, state, anchorErr, nil
}

// setupMain is the child process of one timed set-up round: it sets the
// system up, prints one JSON line saying whether the anchor matched, and
// shuts the system down again.
func setupMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench setup", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload whose set-up to make")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 12, "length of the timed window the plan is made for")
	out := fs.String("out", ".bench_build/perfbench-out", "directory for scratch data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench setup: unknown workload %q\n", *name)
		return 2
	}
	c := config{workload: w, seed: *seed, seconds: *seconds, out: *out}
	e, _, anchorErr, err := setUp(c, nil, newPlan(c.seed, c.seconds))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench setup:", err)
		return 1
	}
	defer e.close()
	var ready setupReady
	if anchorErr != nil {
		ready.AnchorError = anchorErr.Error()
	}
	b, _ := json.Marshal(ready)
	fmt.Fprintln(stdout, string(b))
	return 0
}

// setupReady is the line a set-up child prints once the system is ready.
type setupReady struct {
	AnchorError string `json:"anchor_error,omitempty"`
}

// timeSetup runs one set-up round in a child process and returns the time
// from starting it to its ready line: process start, package
// initialisation and the set-up itself.
func timeSetup(c config, stderr io.Writer) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "setup",
		"-workload", c.workload.name,
		"-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"-out", c.out)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(pipe).ReadBytes('\n')
	secs := time.Since(t0).Seconds()
	io.Copy(io.Discard, pipe)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	if readErr != nil {
		return 0, fmt.Errorf("set-up process: no ready line: %w", readErr)
	}
	var ready setupReady
	if err := json.Unmarshal(line, &ready); err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	if ready.AnchorError != "" {
		return 0, errors.New(ready.AnchorError)
	}
	return secs, nil
}

// runReference runs the untraced run of the same plan as a child process,
// with its own output directory, and returns the detail file it wrote.
func runReference(c config, stderr io.Writer) (*detail, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rc := c
	rc.trace = false
	rc.out = filepath.Join(c.out, "ref")
	cmd := exec.Command(exe,
		"-workload", c.workload.name,
		"-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"-trace", "0",
		"-out", rc.out)
	cmd.Stdout = stderr
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("untraced reference run: %w", err)
	}
	var ref detail
	if err := readJSON(filepath.Join(rc.out, rc.base()+".json"), &ref); err != nil {
		return nil, err
	}
	return &ref, nil
}

// report prints the run's figures, with sample counts, to stderr.
func report(w io.Writer, c config, d *detail) {
	fmt.Fprintf(w, "perfbench: %s correct=%v attempted=%d failed=%d setup rounds %v\n", c.workload.name, d.Correct, d.Attempted, d.Failed, roundAll(d.SetupS))
	for _, e := range d.Errors {
		fmt.Fprintln(w, "  error:", e)
	}
	var names []string
	for k := range d.Timings {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-22s %s\n", k, d.Timings[k])
	}
	names = names[:0]
	for k := range d.Extra {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-22s %.6g\n", k, d.Extra[k])
	}
	names = names[:0]
	for k := range d.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  metric %-32s %.6g\n", k, d.Metrics[k])
	}
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
