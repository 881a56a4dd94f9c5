package sweep

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"multicluster/internal/obs"
	"multicluster/internal/workload"
)

// coldCellSeed starts far outside the seed ranges any test or sweep uses,
// so every benchmark cell misses the process-wide run memo and does its
// real work: compile, materialize, simulate.
var coldCellSeed atomic.Int64

func init() { coldCellSeed.Store(8_000_000) }

// BenchmarkServiceColdCells measures cold-cell throughput with Metrics on:
// NumCPU pool workers fed by NumCPU closed-loop clients, each submitting a
// 100k-instruction cell at a fresh seed and waiting for it. It reproduces
// what a serial replay of the same cells cannot show — contention between
// workers over anything they share per cycle, such as the core_*
// instruments — and reports cells/s.
//
//	go test -run '^$' -bench ServiceColdCells -benchtime 40x ./internal/sweep
func BenchmarkServiceColdCells(b *testing.B) {
	workers := runtime.NumCPU()
	svc := NewService(Config{Workers: workers, Metrics: NewMetrics(obs.NewRegistry())})
	defer svc.Close()
	benches := workload.All()
	machines := []string{"single", "dual"}
	schedulers := []string{"none", "local"}

	b.SetParallelism(1) // GOMAXPROCS clients
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			seed := coldCellSeed.Add(1)
			k := int(seed) % (len(benches) * len(machines) * len(schedulers))
			job, err := svc.Submit(JobSpec{
				Benchmark:    benches[k/(len(machines)*len(schedulers))].Name,
				Machine:      machines[(k/len(schedulers))%len(machines)],
				Scheduler:    schedulers[k%len(schedulers)],
				Seed:         seed,
				Instructions: 100_000,
			})
			if err != nil {
				b.Error(err)
				return
			}
			<-job.Done()
			if _, err := job.Result(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "cells/s")
}
