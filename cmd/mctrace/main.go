// Command mctrace records, inspects, and replays binary dynamic-instruction
// traces, decoupling (slow, driver-dependent) trace generation from (fast,
// repeatable) simulation. A recorded trace guarantees that every machine
// configuration sees the identical dynamic stream.
//
// Usage:
//
//	mctrace -bench compress -sched local -record /tmp/c.mctr -n 300000
//	mctrace -bench compress -sched local -info   /tmp/c.mctr
//	mctrace -bench compress -sched local -replay /tmp/c.mctr -machine dual
//
// The static pipeline flags (-bench, -sched, -seed, -window) must match
// between record and replay so the trace re-binds to the same binary; the
// reader verifies the program shape.
package main

import (
	"flag"
	"fmt"
	"os"

	"multicluster/internal/core"
	"multicluster/internal/experiment"
	"multicluster/internal/isa"
	"multicluster/internal/trace"
	"multicluster/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "compress", "benchmark name")
		sched   = flag.String("sched", "local", "scheduler: none, local, hash, roundrobin, affinity")
		seed    = flag.Int64("seed", 42, "behaviour-driver seed")
		window  = flag.Int("window", 0, "local-scheduler imbalance window")
		n       = flag.Int64("n", 300_000, "instructions to record")
		record  = flag.String("record", "", "record a trace to this file")
		info    = flag.String("info", "", "summarize a recorded trace")
		replay  = flag.String("replay", "", "simulate a recorded trace")
		machine = flag.String("machine", "dual", "machine for -replay: single, dual, single4, dual2")
	)
	flag.Parse()

	w := workload.ByName(*bench)
	if w == nil {
		fatalf("unknown benchmark %q", *bench)
	}
	opts := experiment.DefaultOptions()
	opts.Seed = *seed
	opts.Window = *window
	opts.Instructions = *n
	opts.ProfileInstructions = 0 // scale the profiling pass with -n
	part, err := experiment.SchedulerByName(*sched, *window)
	if err != nil {
		fatalf("%v", err)
	}
	mp, _, err := experiment.Compile(w, part, opts)
	if err != nil {
		fatalf("compile: %v", err)
	}

	switch {
	case *record != "":
		gen, err := trace.NewGenerator(mp, w.NewDriver(*seed), *n)
		if err != nil {
			fatalf("%v", err)
		}
		f, err := os.Create(*record)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		count, err := trace.Record(f, mp, gen, *n)
		if err != nil {
			fatalf("record: %v", err)
		}
		st, _ := f.Stat()
		fmt.Printf("recorded %d instructions to %s (%d bytes, %.2f B/instr)\n",
			count, *record, st.Size(), float64(st.Size())/float64(count))

	case *info != "":
		fr := openTrace(*info, mp)
		var total, mem, ctrl, taken int64
		for {
			e, ok := fr.Next()
			if !ok {
				break
			}
			total++
			if e.Instr.Op.Class().IsMem() {
				mem++
			}
			if e.Instr.Op.IsControl() {
				ctrl++
				if e.Taken {
					taken++
				}
			}
		}
		if err := fr.Err(); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%s: %d instructions, %.1f%% memory, %.1f%% control (%.1f%% taken)\n",
			*info, total, pct(mem, total), pct(ctrl, total), pct(taken, ctrl))

	case *replay != "":
		cfg, err := experiment.MachineByName(*machine)
		if err != nil {
			fatalf("%v", err)
		}
		fr := openTrace(*replay, mp)
		p, err := core.New(cfg, fr)
		if err != nil {
			fatalf("%v", err)
		}
		stats, err := p.Run()
		if err != nil {
			fatalf("simulate: %v", err)
		}
		if err := fr.Err(); err != nil {
			fatalf("trace: %v", err)
		}
		fmt.Printf("replayed on %s: %v\n", *machine, stats)

	default:
		fatalf("one of -record, -info, or -replay is required")
	}
}

func openTrace(path string, mp *isa.Program) *trace.FileReader {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	fr, err := trace.NewFileReader(f, mp)
	if err != nil {
		fatalf("%v (did the -bench/-sched/-seed flags match the recording?)", err)
	}
	return fr
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mctrace: "+format+"\n", args...)
	os.Exit(1)
}
