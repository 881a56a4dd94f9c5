// Probe-hook tests: installing probes must not change the simulated
// machine by a single cycle, and what the probes report must agree with
// the Stats counters the golden fixtures pin.
package core_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"multicluster/internal/core"
	"multicluster/internal/experiment"
	"multicluster/internal/partition"
	"multicluster/internal/workload"
)

// probeTally accumulates everything the probes report for one run.
type probeTally struct {
	cycles   int64
	queueSum [2]int64
}

func (pt *probeTally) probes() *core.Probes {
	return &core.Probes{
		Cycle: func(s core.CycleSample) {
			pt.cycles++
			pt.queueSum[0] += int64(s.Queue[0])
			pt.queueSum[1] += int64(s.Queue[1])
		},
	}
}

// runProbed simulates one workload on the starved two-way dual machine
// (the configuration that exercises replays) with optional probes.
func runProbed(t *testing.T, probes *core.Probes) core.Stats {
	t.Helper()
	b := workload.ByName("compress")
	opts := experiment.DefaultOptions()
	opts.Instructions = 30_000
	opts.ProfileInstructions = 10_000
	opts.Probes = probes
	mp, _, err := experiment.Compile(b, partition.Local{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DualCluster2Way()
	cfg.MaxCycles = opts.Instructions * 200
	stats, err := experiment.Simulate(mp, b, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestProbesMatchStats(t *testing.T) {
	var pt probeTally
	stats := runProbed(t, pt.probes())

	if pt.cycles != stats.Cycles {
		t.Errorf("Cycle probe fired %d times, stats counted %d cycles", pt.cycles, stats.Cycles)
	}
	for c := 0; c < 2; c++ {
		if pt.queueSum[c] != stats.Cluster[c].QueueOccupancySum {
			t.Errorf("cluster %d: probed queue occupancy sum %d != stats %d",
				c, pt.queueSum[c], stats.Cluster[c].QueueOccupancySum)
		}
	}
}

// TestProbesDoNotPerturbStats is the zero-cost-when-enabled-or-disabled
// invariant in behavioural form: the full snapshot with probes installed
// is byte-identical to the run without them.
func TestProbesDoNotPerturbStats(t *testing.T) {
	var pt probeTally
	withProbes := runProbed(t, pt.probes())
	without := runProbed(t, nil)

	a, err := json.Marshal(withProbes.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(without.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("stats diverge when probes are installed:\nwith:    %s\nwithout: %s", a, b)
	}
}

func TestStallCauseStrings(t *testing.T) {
	want := map[core.StallCause]string{
		core.StallICacheMiss: "icache_miss",
		core.StallMispredict: "mispredict",
		core.StallQueueFull:  "queue_full",
		core.StallRegsFull:   "regs_full",
		core.StallReplay:     "replay",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("StallCause(%d).String() = %q, want %q", c, c.String(), name)
		}
	}
	if core.StallCause(250).String() != "unknown" {
		t.Errorf("out-of-range cause should stringify as unknown")
	}
}
