// Package sweep is the orchestration subsystem behind the mcserved daemon:
// a canonical, content-hashable job specification; a content-addressed
// result cache with single-flight deduplication and an optional
// crash-safe append-only journal; a bounded worker pool with a FIFO
// queue, per-job cancellation, and panic isolation; and a grid-sweep API
// that expands the paper's evaluation matrix into jobs and streams
// completed rows.
//
// A fault-tolerance layer wraps execution end to end: per-job deadlines
// enforced through context, retries with exponential backoff and
// deterministic jitter for transient failures (with a terminal-error
// classifier so deterministic simulator errors never retry), admission
// control that sheds load once the live-job window fills, and optional
// deterministic fault injection (internal/faultinject) at the
// simulation, cache, and journal boundaries for chaos soaks.
//
// The design goal is the one stated in the evaluation methodology made
// operational: every cell of the (benchmark × machine × scheduler ×
// window) grid is a pure function of its specification, so the service
// never computes the same configuration twice, no matter how many clients
// ask concurrently.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"multicluster/internal/core"
	"multicluster/internal/experiment"
	"multicluster/internal/workload"
)

// JobSpec identifies one simulation: a benchmark compiled under a
// scheduler and executed on a machine for a given dynamic budget and seed.
// The zero value of every optional field means "the paper's default", and
// Normalize resolves those defaults, so two specs that mean the same run
// always hash identically.
type JobSpec struct {
	// Benchmark is one of the six Table 2 workloads.
	Benchmark string `json:"benchmark"`
	// Machine is a named configuration: single, dual, single4, dual2.
	// Leave empty when supplying an explicit Config.
	Machine string `json:"machine,omitempty"`
	// Config is an explicit processor configuration, overriding Machine.
	Config *core.Config `json:"config,omitempty"`
	// Scheduler is none, local, hash, roundrobin, or affinity; empty means
	// none (the native, cluster-oblivious binary).
	Scheduler string `json:"scheduler,omitempty"`
	// Window is the local scheduler's imbalance threshold (0 = default).
	Window int `json:"window,omitempty"`
	// Seed drives the behaviour drivers; 0 means the default 42.
	Seed int64 `json:"seed,omitempty"`
	// Instructions is the dynamic budget; 0 means the default 300k.
	Instructions int64 `json:"instructions,omitempty"`
	// ProfileInstructions is the profiling-pass budget; 0 means
	// Instructions/6.
	ProfileInstructions int64 `json:"profile_instructions,omitempty"`
	// PostSchedule applies the post-pass list scheduler after allocation.
	PostSchedule bool `json:"post_schedule,omitempty"`
	// TimeoutMS is the per-job deadline in milliseconds; 0 means the
	// service default. It is an execution parameter, not part of the
	// simulated configuration, so it is excluded from the content hash:
	// two specs differing only in timeout address the same cached result.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Timeout resolves the job deadline: the spec's own TimeoutMS if set,
// otherwise the service default; 0 means no deadline.
func (s JobSpec) Timeout(def time.Duration) time.Duration {
	if s.TimeoutMS > 0 {
		return time.Duration(s.TimeoutMS) * time.Millisecond
	}
	return def
}

// Normalize resolves every default and validates the spec. The returned
// spec is canonical: any two specs describing the same run normalize to
// identical values and therefore identical hashes.
func (s JobSpec) Normalize() (JobSpec, error) {
	if workload.ByName(s.Benchmark) == nil {
		return s, fmt.Errorf("sweep: unknown benchmark %q", s.Benchmark)
	}
	if s.TimeoutMS < 0 {
		return s, fmt.Errorf("sweep: negative timeout_ms %d", s.TimeoutMS)
	}
	if s.Scheduler == "" {
		s.Scheduler = "none"
	}
	if _, err := experiment.SchedulerByName(s.Scheduler, s.Window); err != nil {
		return s, err
	}
	if s.Scheduler != "local" {
		// The window only parameterizes the local scheduler; fold it away
		// so e.g. {none, window: 7} and {none} address the same result.
		s.Window = 0
	}
	if s.Config != nil {
		if err := s.Config.Validate(); err != nil {
			return s, err
		}
		cfg := *s.Config // never alias the caller's config
		s.Config = &cfg
		s.Machine = ""
	} else {
		if s.Machine == "" {
			s.Machine = "dual"
		}
		if _, err := experiment.MachineByName(s.Machine); err != nil {
			return s, err
		}
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Instructions <= 0 {
		s.Instructions = 300_000
	}
	if s.ProfileInstructions <= 0 {
		s.ProfileInstructions = experiment.DefaultProfileBudget(s.Instructions)
	}
	return s, nil
}

// Hash returns the stable content hash of the normalized spec. It is
// defined over the resolved machine configuration, not the machine name,
// so a named machine and the equivalent explicit Config address the same
// cache entry.
func (s JobSpec) Hash() (string, error) {
	n, err := s.Normalize()
	if err != nil {
		return "", err
	}
	cfg, _, err := n.Resolve()
	if err != nil {
		return "", err
	}
	key := struct {
		Benchmark string      `json:"benchmark"`
		Config    core.Config `json:"config"`
		Scheduler string      `json:"scheduler"`
		Window    int         `json:"window"`
		Seed      int64       `json:"seed"`
		Instrs    int64       `json:"instructions"`
		Profile   int64       `json:"profile_instructions"`
		PostSched bool        `json:"post_schedule"`
	}{n.Benchmark, cfg, n.Scheduler, n.Window, n.Seed, n.Instructions, n.ProfileInstructions, n.PostSchedule}
	data, err := json.Marshal(key)
	if err != nil {
		return "", fmt.Errorf("sweep: hashing spec: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Resolve returns the processor configuration and experiment options of a
// normalized spec. The spec's machine becomes opts.Dual when it is
// clustered, so the clustered register allocator sees the machine's
// register-to-cluster assignment.
func (s JobSpec) Resolve() (core.Config, experiment.Options, error) {
	var cfg core.Config
	if s.Config != nil {
		cfg = *s.Config
	} else {
		var err error
		if cfg, err = experiment.MachineByName(s.Machine); err != nil {
			return cfg, experiment.Options{}, err
		}
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = s.Instructions * 40
	}
	opts := experiment.DefaultOptions()
	opts.Instructions = s.Instructions
	opts.ProfileInstructions = s.ProfileInstructions
	opts.Seed = s.Seed
	opts.Window = s.Window
	opts.PostSchedule = s.PostSchedule
	if cfg.Clusters == 2 {
		opts.Dual = cfg
	}
	return cfg, opts, nil
}

// String renders the spec compactly for logs.
func (s JobSpec) String() string {
	machine := s.Machine
	if s.Config != nil {
		machine = fmt.Sprintf("custom(%d-cluster)", s.Config.Clusters)
	}
	return fmt.Sprintf("%s/%s/%s/w%d/n%d/seed%d", s.Benchmark, machine, s.Scheduler, s.Window, s.Instructions, s.Seed)
}

// Result is the outcome of one job: the full statistics snapshot plus the
// compile-side counters, tagged with the spec and hash that produced it.
type Result struct {
	Spec    JobSpec            `json:"spec"`
	Hash    string             `json:"hash"`
	Stats   core.StatsSnapshot `json:"stats"`
	Spilled int                `json:"spilled"`
	Demoted int                `json:"demoted"`
}
