// Command vyrdbench regenerates the evaluation tables of the paper
// (Section 7): Table 1 (time to detection, I/O vs view refinement),
// Table 2 (logging overhead by level) and Table 3 (running-time breakdown
// with online and offline checking).
//
// Usage:
//
//	vyrdbench -table all
//	vyrdbench -table 1 -reps 10 -ops 800
//	vyrdbench -table 3 -scale 20
//	vyrdbench -table 3 -cpuprofile cpu.out -memprofile mem.out
//
// Absolute times are this machine's; the paper's shapes are what the tables
// are compared on (see EXPERIMENTS.md). Performance of the pipeline itself
// is measured by `go run ./benchmark`, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
)

func main() {
	var (
		table      = flag.String("table", "all", "which table to regenerate: 1, 2, 3 or all")
		reps       = flag.Int("reps", 0, "repetitions per cell (0 = per-table default)")
		ops        = flag.Int("ops", 0, "Table 1/2 ops per thread (0 = default)")
		scale      = flag.Int("scale", 0, "Table 3 method-count scale factor (0 = default)")
		seed       = flag.Int64("seed", 1, "base random seed")
		subject    = flag.String("subject", "", "restrict Table 1 to one subject")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vyrdbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "vyrdbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	runTable1 := func() {
		cfg := bench.DefaultTable1Config()
		cfg.Seed = *seed
		if *reps > 0 {
			cfg.Reps = *reps
		}
		if *ops > 0 {
			cfg.OpsPerThread = *ops
		}
		var rows []bench.Table1Row
		if *subject != "" {
			s, ok := bench.SubjectByName(*subject)
			if !ok {
				fmt.Fprintf(os.Stderr, "vyrdbench: unknown subject %q\n", *subject)
				os.Exit(2)
			}
			rows = bench.Table1Subject(s, cfg)
		} else {
			rows = bench.Table1(cfg)
		}
		bench.WriteTable1(os.Stdout, rows)
	}

	runTable2 := func() {
		cfg := bench.DefaultTable2Config()
		cfg.Seed = *seed
		if *reps > 0 {
			cfg.Reps = *reps
		}
		if *ops > 0 {
			cfg.OpsPerThread = *ops
		}
		bench.WriteTable2(os.Stdout, bench.Table2(cfg))
	}

	runTable3 := func() {
		cfg := bench.DefaultTable3Config()
		cfg.Seed = *seed
		if *reps > 0 {
			cfg.Reps = *reps
		}
		if *scale > 0 {
			cfg.Scale = *scale
		}
		bench.WriteTable3(os.Stdout, bench.Table3(cfg))
	}

	switch *table {
	case "1":
		runTable1()
	case "2":
		runTable2()
	case "3":
		runTable3()
	case "all":
		runTable1()
		fmt.Println()
		runTable2()
		fmt.Println()
		runTable3()
	default:
		fmt.Fprintf(os.Stderr, "vyrdbench: unknown table %q (1, 2, 3 or all)\n", *table)
		os.Exit(2)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vyrdbench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "vyrdbench: memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
}
