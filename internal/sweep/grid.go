package sweep

import (
	"fmt"

	"multicluster/internal/workload"
)

// Grid is a sweep request: the cross product of benchmarks, machines,
// schedulers, windows, and seeds, each cell one JobSpec. Empty dimensions
// default to the paper's evaluation axes.
type Grid struct {
	// Benchmarks defaults to the six Table 2 workloads.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Machines defaults to [single, dual].
	Machines []string `json:"machines,omitempty"`
	// Schedulers defaults to [none, local].
	Schedulers []string `json:"schedulers,omitempty"`
	// Windows defaults to [0]; non-zero entries only vary the local
	// scheduler.
	Windows []int `json:"windows,omitempty"`
	// Seeds defaults to [42].
	Seeds []int64 `json:"seeds,omitempty"`
	// Instructions is the per-cell dynamic budget; 0 means 300k.
	Instructions int64 `json:"instructions,omitempty"`
	// PostSchedule applies the post-pass list scheduler in every cell.
	PostSchedule bool `json:"post_schedule,omitempty"`
}

// Expand enumerates the grid into normalized job specs, deduplicated by
// content hash (distinct cells can normalize to the same spec, e.g. two
// windows under a non-local scheduler), in deterministic order.
func (g Grid) Expand() ([]JobSpec, error) {
	benches := g.Benchmarks
	if len(benches) == 0 {
		for _, b := range workload.All() {
			benches = append(benches, b.Name)
		}
	}
	machines := g.Machines
	if len(machines) == 0 {
		machines = []string{"single", "dual"}
	}
	scheds := g.Schedulers
	if len(scheds) == 0 {
		scheds = []string{"none", "local"}
	}
	windows := g.Windows
	if len(windows) == 0 {
		windows = []int{0}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{42}
	}

	var specs []JobSpec
	seen := make(map[string]bool)
	for _, b := range benches {
		for _, m := range machines {
			for _, sc := range scheds {
				for _, w := range windows {
					for _, seed := range seeds {
						spec := JobSpec{
							Benchmark:    b,
							Machine:      m,
							Scheduler:    sc,
							Window:       w,
							Seed:         seed,
							Instructions: g.Instructions,
							PostSchedule: g.PostSchedule,
						}
						norm, err := spec.Normalize()
						if err != nil {
							return nil, fmt.Errorf("sweep: cell %s: %w", spec, err)
						}
						hash, err := norm.Hash()
						if err != nil {
							return nil, err
						}
						if seen[hash] {
							continue
						}
						seen[hash] = true
						specs = append(specs, norm)
					}
				}
			}
		}
	}
	return specs, nil
}
