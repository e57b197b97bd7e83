// Command vyrdbench regenerates the evaluation tables of the paper
// (Section 7): Table 1 (time to detection, I/O vs view refinement),
// Table 2 (logging overhead by level) and Table 3 (running-time breakdown
// with online and offline checking).
//
// Usage:
//
//	vyrdbench -table all
//	vyrdbench -table 1 -reps 10 -ops 800
//	vyrdbench -table explore -budget 2000
//	vyrdbench -table 3 -scale 20
//	vyrdbench -table all -json bench.json
//	vyrdbench -table 3 -cpuprofile cpu.out -memprofile mem.out
//
// Absolute times are this machine's; the paper's shapes are what the tables
// are compared on (see EXPERIMENTS.md). With -json the same rows are also
// written as a machine-readable snapshot (environment + rows), which is how
// checked-in artifacts like BENCH_PR2.json are produced.
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
		table      = flag.String("table", "all", "which table to regenerate: 1, 2, 3, log, explore, durability, linearize, fleet, ltl or all")
		reps       = flag.Int("reps", 0, "repetitions per cell (0 = per-table default)")
		ops        = flag.Int("ops", 0, "Table 1/2 and log-pipeline ops per thread (0 = default)")
		scale      = flag.Int("scale", 0, "Table 3 method-count scale factor (0 = default)")
		seed       = flag.Int64("seed", 1, "base random seed")
		subject    = flag.String("subject", "", "restrict Table 1 to one subject")
		window     = flag.Int("window", 0, "log-pipeline truncation window in entries (0 = default)")
		budget     = flag.Int("budget", 2000, "exploration schedule budget per subject")
		sessions   = flag.Int("sessions", 0, "fleet-table concurrent session target (0 = default 1000)")
		workers    = flag.Int("workers", 0, "fleet-table checker pool width (0 = 2×GOMAXPROCS)")
		jsonPath   = flag.String("json", "", "also write the rows as a JSON snapshot to this file")
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

	snap := bench.NewSnapshot()

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
		snap.Table1 = rows
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
		snap.Table2 = bench.Table2(cfg)
		bench.WriteTable2(os.Stdout, snap.Table2)
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
		snap.Table3 = bench.Table3(cfg)
		bench.WriteTable3(os.Stdout, snap.Table3)
	}

	runLogPipeline := func() {
		cfg := bench.DefaultLogPipelineConfig()
		cfg.Seed = *seed
		if *ops > 0 {
			cfg.OpsPerThread = *ops
		}
		if *window > 0 {
			cfg.Window = *window
		}
		snap.LogPipeline = bench.LogPipeline(cfg)
		bench.WriteLogPipeline(os.Stdout, cfg, snap.LogPipeline)
	}

	runExplore := func() {
		rows, err := bench.ExploreTable(*budget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vyrdbench: explore: %v\n", err)
			os.Exit(1)
		}
		snap.Explore = rows
		bench.WriteExploreTable(os.Stdout, rows)
	}

	runLinearize := func() {
		cfg := bench.DefaultLinearizeConfig()
		rows, err := bench.LinearizeTable(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vyrdbench: linearize: %v\n", err)
			os.Exit(1)
		}
		snap.Linearize = rows
		bench.WriteLinearizeTable(os.Stdout, rows)
		prows, err := bench.LinearizeParallelTable([]int{1, 2, 4, 8})
		if err != nil {
			fmt.Fprintf(os.Stderr, "vyrdbench: linearize parallel: %v\n", err)
			os.Exit(1)
		}
		snap.LinearizeParallel = prows
		fmt.Println()
		bench.WriteLinearizeParallelTable(os.Stdout, prows)
		mrows, err := bench.LinearizeMemoTable([]int{8, 64})
		if err != nil {
			fmt.Fprintf(os.Stderr, "vyrdbench: linearize memo: %v\n", err)
			os.Exit(1)
		}
		snap.LinearizeMemo = mrows
		fmt.Println()
		bench.WriteLinearizeMemoTable(os.Stdout, mrows)
	}

	runFleet := func() {
		cfg := bench.DefaultFleetConfig()
		cfg.Seed = *seed
		if *sessions > 0 {
			cfg.Sessions = *sessions
		}
		if *workers > 0 {
			cfg.Workers = *workers
		}
		if *subject != "" {
			cfg.Subject = *subject
		}
		rows, err := bench.FleetTable(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vyrdbench: fleet: %v\n", err)
			os.Exit(1)
		}
		snap.Fleet = rows
		bench.WriteFleetTable(os.Stdout, rows)
	}

	runLTL := func() {
		cfg := bench.DefaultLTLConfig()
		cfg.Seed = *seed
		if *reps > 0 {
			cfg.Reps = *reps
		}
		if *ops > 0 {
			cfg.OpsPerThread = *ops
		}
		if *subject != "" {
			cfg.Subject = *subject
		}
		rows, err := bench.LTLTable(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vyrdbench: ltl: %v\n", err)
			os.Exit(1)
		}
		snap.LTL = rows
		bench.WriteLTLTable(os.Stdout, cfg, rows)
		orows, err := bench.LTLOnlineTable(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vyrdbench: ltl online: %v\n", err)
			os.Exit(1)
		}
		snap.LTLOnline = orows
		fmt.Println()
		bench.WriteLTLOnlineTable(os.Stdout, orows)
	}

	runDurability := func() {
		cfg := bench.DefaultDurabilityConfig()
		cfg.Seed = *seed
		if *ops > 0 {
			cfg.OpsPerThread = *ops
		}
		row := bench.Durability(cfg)
		snap.Durability = &row
		bench.WriteDurability(os.Stdout, cfg, row)
	}

	switch *table {
	case "1":
		runTable1()
	case "2":
		runTable2()
	case "3":
		runTable3()
	case "log":
		runLogPipeline()
	case "explore":
		runExplore()
	case "durability":
		runDurability()
	case "linearize":
		runLinearize()
	case "fleet":
		runFleet()
	case "ltl":
		runLTL()
	case "all":
		runTable1()
		fmt.Println()
		runTable2()
		fmt.Println()
		runTable3()
		fmt.Println()
		runLogPipeline()
		fmt.Println()
		runExplore()
		fmt.Println()
		runDurability()
		fmt.Println()
		runLinearize()
		fmt.Println()
		runFleet()
		fmt.Println()
		runLTL()
	default:
		fmt.Fprintf(os.Stderr, "vyrdbench: unknown table %q (1, 2, 3, log, explore, durability, linearize, fleet, ltl or all)\n", *table)
		os.Exit(2)
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vyrdbench: %v\n", err)
			os.Exit(1)
		}
		if err := snap.WriteJSON(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "vyrdbench: json: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "vyrdbench: wrote snapshot to %s\n", *jsonPath)
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
