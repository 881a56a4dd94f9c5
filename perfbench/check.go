package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"multicluster/internal/core"
	"multicluster/internal/sweep"
)

// The golden anchor: outside the timed window, one cell that matches a
// committed fixture of the core's golden suite (seed 42, 60k instructions,
// a 15k profile, the local scheduler) must come back from the API with
// exactly the fixture's bytes. Every set-up checks the same fixture, so
// the timed set-up rounds of a run all do the same work.
const anchorFixture = "gcc1_single8.json"

// repoRoot is the repository root, where the benchmark runs from.
var repoRoot = "."

// goldenDir is where the fixtures live, relative to the repository root.
const goldenDir = "internal/core/testdata/golden"

func anchorSpec() (sweep.JobSpec, string) {
	spec := sweep.JobSpec{
		Benchmark:           "gcc1",
		Machine:             "single",
		Scheduler:           "local",
		Seed:                42,
		Instructions:        60_000,
		ProfileInstructions: 15_000,
	}
	return spec, filepath.Join(repoRoot, goldenDir, anchorFixture)
}

// checkAnchor runs the anchor cell through the API and compares
// its stats with the fixture.
func checkAnchor(e *env) error {
	spec, path := anchorSpec()
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golden anchor: %w", err)
	}
	v, err := e.run(-1, spec, 2*time.Millisecond)
	if err != nil {
		return fmt.Errorf("golden anchor %s: %w", spec, err)
	}
	snap, err := resultStats(v.Result)
	if err != nil {
		return fmt.Errorf("golden anchor %s: %w", spec, err)
	}
	got, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		return fmt.Errorf("golden anchor %s: stats differ from %s", spec, path)
	}
	return nil
}

// resultStats decodes the stats of a raw sweep.Result.
func resultStats(raw json.RawMessage) (core.StatsSnapshot, error) {
	var r struct {
		Stats *core.StatsSnapshot `json:"stats"`
	}
	if len(raw) == 0 {
		return core.StatsSnapshot{}, fmt.Errorf("no result")
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return core.StatsSnapshot{}, err
	}
	if r.Stats == nil {
		return core.StatsSnapshot{}, fmt.Errorf("result without stats")
	}
	return *r.Stats, nil
}

// sameStats byte-compares the canonical encodings of an API result's stats
// and a direct-call recomputation.
func sameStats(api json.RawMessage, direct core.StatsSnapshot) error {
	got, err := resultStats(api)
	if err != nil {
		return err
	}
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(direct)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("API stats differ from the direct-call recomputation")
	}
	return nil
}
