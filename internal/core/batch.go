package core

import (
	"fmt"

	"multicluster/internal/trace"
)

// This file runs several machine configurations over one trace source
// (typically a materialized trace.Artifact): each member gets its own
// cursor over the shared stream and simulates exactly as it would
// standalone, so the golden fixtures are byte-identical between this path
// and N independent runs.

// RunBatch simulates one processor per configuration, each reading the
// shared source through its own cursor, and returns the per-member
// statistics in input order. Results are byte-identical to running each
// configuration standalone over the same stream. Any member's simulation
// error (a machine deadlock, an invalid configuration) aborts the batch;
// callers that need per-member attribution re-run the failing member
// alone.
func RunBatch(cfgs []Config, src trace.Source) ([]Stats, error) {
	stats := make([]Stats, len(cfgs))
	for i, cfg := range cfgs {
		p, err := New(cfg, src.NewReader())
		if err != nil {
			return nil, fmt.Errorf("core: batch member %d: %w", i, err)
		}
		if stats[i], err = p.Run(); err != nil {
			return nil, fmt.Errorf("core: batch member %d: %w", i, err)
		}
	}
	return stats, nil
}
