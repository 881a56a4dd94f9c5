package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain compares two detail files metric by metric. Results from
// hosts with different fingerprints are not comparable, and it says so
// instead of giving a verdict. Bounds come from BENCHMARK.json when one
// is found in the working directory.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var a, b detail
	for i, d := range []*detail{&a, &b} {
		if err := readJSON(args[i], d); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	fmt.Fprint(stdout, compare(a, b, loadBounds("BENCHMARK.json")))
	return 0
}

// loadBounds reads the end-to-end bounds of BENCHMARK.json, if present.
func loadBounds(path string) map[string]float64 {
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(raw, &spec) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// compare renders the verdict of b against a.
func compare(a, b detail, bounds map[string]float64) string {
	if diff := a.Fingerprint.diff(b.Fingerprint); diff != "" {
		return fmt.Sprintf("not comparable: the hosts differ (%s)\n", diff)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Sprintf("not comparable: %s trace=%v vs %s trace=%v\n", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	better := map[string]string{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		better[m.name] = m.better
	}
	var names []string
	for k := range a.Metrics {
		if _, ok := b.Metrics[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	out := fmt.Sprintf("%s, seeds %d vs %d\n", a.Workload, a.Seed, b.Seed)
	for _, k := range names {
		x, y := a.Metrics[k], b.Metrics[k]
		change := ratio(y-x, x)
		worse := change
		if better[k] == "higher" {
			worse = -change
		}
		verdict := ""
		if bound, ok := bounds[k]; ok {
			verdict = "within bound"
			if worse > bound {
				verdict = fmt.Sprintf("WORSE by more than its bound %.0f%%", 100*bound)
			}
		}
		out += fmt.Sprintf("  %-34s %12.6g -> %-12.6g %+7.1f%%  %s\n", k, x, y, 100*change, verdict)
	}
	return out
}
