// Command vyrd exercises one of the repository's concurrent data structures
// under the random test harness of the paper's Section 7.1 and checks the
// recorded execution for refinement violations.
//
// Usage:
//
//	vyrd -subject BLinkTree -bug -threads 8 -ops 400 -mode view
//	vyrd -list
//
// With -bug the subject runs with its Table 1 injected concurrency error;
// without it, the correct implementation runs and the expected outcome is a
// clean report. -mode selects I/O or view refinement, or "linearize": the
// linearizability engine, which reads call/return actions alone and so also
// verifies subjects with no commit-point annotations (try
// -subject Multiset-NoCommit, whose instrumentation refinement rejects by
// construction). -mode=ltl runs the temporal engine instead: streaming LTL3
// properties over the execution log (internal/ltl), either the subject's
// built-in property set or a property file given with -props:
//
//	vyrd -subject Ledger-LockPair -mode ltl
//	vyrd -subject Multiset-Array -mode ltl -props props.ltl
//
// -online checks concurrently with the workload on a
// verification goroutine instead of offline from the recorded log; -save
// persists the log for later offline checking with -load ("-load -" streams
// the log from stdin). Loaded logs decode on a parallel worker pool
// (-decoders); format versions 2 and 3 are read, anything else is refused.
//
// A log left behind by a crashed producer is repaired with -recover: the
// torn tail past the last valid frame is truncated in place and the
// recovery report printed. Combine with -load to check the recovered
// prefix in the same invocation:
//
//	vyrd -subject BLinkTree -recover crash.log -load crash.log
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/harness"
	"repro/internal/linearize"
	"repro/internal/wal"
	"repro/vyrd"
)

// linearizeStates bounds the linearizability engine's search; harness-shaped
// logs stay far below it, and hitting it reports an aborted verdict rather
// than hanging the CLI.
const linearizeStates = 1 << 24

func main() {
	var (
		list    = flag.Bool("list", false, "list subjects and exit")
		subject = flag.String("subject", "Multiset-Vector", "subject to exercise (see -list)")
		bug     = flag.Bool("bug", false, "enable the subject's injected concurrency error")
		threads = flag.Int("threads", 8, "application threads")
		ops     = flag.Int("ops", 400, "method calls per thread")
		pool    = flag.Int("pool", 16, "key pool size (shrinks over the run)")
		seed    = flag.Int64("seed", 1, "harness random seed")
		mode    = flag.String("mode", "view", "verdict mode: io or view refinement, linearize (commit-annotation-free linearizability), or ltl (temporal properties)")
		props   = flag.String("props", "", "property file for -mode=ltl (default: the subject's built-in property set)")
		online  = flag.Bool("online", false, "check online, concurrently with the workload")
		failFst = flag.Bool("failfast", true, "stop at the first violation")
		save    = flag.String("save", "", "persist the recorded log to this file")
		load    = flag.String("load", "", "skip the run; offline-check a previously saved log")
		recov   = flag.String("recover", "", "repair a crashed producer's log in place (truncate the torn tail) before any -load")
		workers = flag.Int("decoders", 0, "-load decode workers (0 = GOMAXPROCS, 1 = sequential)")
		dump    = flag.Bool("dump", false, "print the witness interleaving before the report (Section 4.1 debugging view)")
		quiesc  = flag.Bool("quiescent", false, "compare views only at quiescent states (the commit-atomicity ablation of Section 8)")
		asJSON  = flag.Bool("json", false, "emit the report as JSON")
	)
	flag.Parse()
	jsonOutput = *asJSON

	if *list {
		for _, s := range bench.AllSubjects() {
			fmt.Printf("%-24s injected error: %s\n", s.Name, s.BugName)
		}
		for _, s := range bench.TemporalSubjects() {
			fmt.Printf("%-24s injected error: %s (temporal)\n", s.Name, s.BugName)
		}
		for _, s := range bench.LinearizeOnlySubjects() {
			fmt.Printf("%-24s injected error: %s (linearize-only)\n", s.Name, s.BugName)
		}
		return
	}

	s, ok := bench.SubjectByName(*subject)
	if !ok {
		fmt.Fprintf(os.Stderr, "vyrd: unknown subject %q (try -list)\n", *subject)
		os.Exit(2)
	}
	target := s.Correct
	if *bug {
		target = s.Buggy
	}

	var checkMode core.Mode
	lin, temporal := false, false
	switch *mode {
	case "io":
		checkMode = core.ModeIO
	case "view":
		checkMode = core.ModeView
	case "linearize":
		lin = true
	case "ltl":
		temporal = true
	default:
		fmt.Fprintf(os.Stderr, "vyrd: unknown mode %q (io, view, linearize or ltl)\n", *mode)
		os.Exit(2)
	}

	// -mode=linearize swaps the verdict engine: the linearizability checker
	// reads call/return actions alone, so it also verifies subjects with no
	// commit-point annotations (e.g. Multiset-NoCommit).
	var linSpec *linearize.Spec
	if lin {
		var ok bool
		if linSpec, ok = bench.LinearizeSpecOf(target.NewSpec); !ok {
			fatal(fmt.Errorf("-mode linearize: %s's specification %T is not a spec.Linearizable", *subject, target.NewSpec()))
		}
	}
	checkLin := func(entries []vyrd.Entry) *vyrd.Report {
		return linearize.CheckEntries(entries, linSpec, linearize.Options{MaxStates: linearizeStates})
	}

	// -mode=ltl swaps in the temporal engine: streaming LTL3 properties
	// over the raw log. -props overrides the subject's built-in set.
	var propSet *vyrd.PropSet
	if temporal {
		var sources []string
		if *props != "" {
			data, err := os.ReadFile(*props)
			if err != nil {
				fatal(err)
			}
			sources = []string{string(data)}
		}
		var err error
		propSet, err = bench.NewTemporalSet(*subject, sources)
		if err != nil {
			fatal(err)
		}
	}
	checkLTL := func(entries []vyrd.Entry) *vyrd.Report {
		return vyrd.CheckTemporal(propSet, entries)
	}

	var opts []vyrd.Option
	if !lin && !temporal {
		opts = []vyrd.Option{vyrd.WithMode(checkMode), vyrd.WithFailFast(*failFst), vyrd.WithDiagnostics(true)}
		if checkMode == core.ModeView {
			opts = append(opts, vyrd.WithReplayer(target.NewReplayer()))
		}
		if *quiesc {
			opts = append(opts, vyrd.WithQuiescentViewOnly(true))
		}
	}

	// The command touches the filesystem only through the faultfs seam, so
	// tests (and fault campaigns) can substitute an injecting FS.
	fsys := faultfs.FS(faultfs.OS{})

	if *recov != "" {
		_, rep, err := wal.RecoverPath(fsys, *recov)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "vyrd: recover %s: %s\n", *recov, rep)
		if *load == "" {
			os.Exit(0)
		}
	}

	if *load != "" {
		// "-load -" reads the framed log from stdin, so shell pipelines
		// compose: a vyrdd session capture, a decompressor, a generator.
		var f faultfs.File = os.Stdin
		if *load != "-" {
			var err error
			f, err = fsys.Open(*load)
			if err != nil {
				fatal(err)
			}
		}
		if !*dump && !lin && !temporal {
			// Stream straight into the checker: the parallel decode pool
			// feeds the sequential checker without materializing the log.
			report, err := vyrd.CheckStream(f, *workers, target.NewSpec(), opts...)
			if err != nil {
				fatal(err)
			}
			finish(report)
		}
		// Frames decode on a worker pool, re-sequenced into log order
		// before checking.
		entries, err := vyrd.ReadLogParallel(f, *workers)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if *dump {
			core.WriteWitness(os.Stdout, entries)
		}
		if lin {
			finish(checkLin(entries))
		}
		if temporal {
			finish(checkLTL(entries))
		}
		report, err := vyrd.CheckEntries(entries, target.NewSpec(), opts...)
		if err != nil {
			fatal(err)
		}
		finish(report)
	}

	runLevel := levelFor(checkMode)
	if temporal {
		// Temporal properties read write actions (lock events, commit
		// payloads), so the run must capture at the view level.
		runLevel = vyrd.LevelView
	}
	cfg := harness.Config{
		Threads:      *threads,
		OpsPerThread: *ops,
		KeyPool:      *pool,
		Shrink:       true,
		Seed:         *seed,
		Level:        runLevel,
	}

	// With -save the log runs fail-stop: a sink that can no longer persist
	// (disk full, injected fault) stops the producer at its next append
	// instead of racing ahead of a file that silently stopped growing.
	log := vyrd.NewLogWith(cfg.Level, vyrd.LogOptions{FailStop: *save != ""})
	if *save != "" {
		f, err := fsys.Create(*save)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := log.AttachSink(f); err != nil {
			fatal(err)
		}
	}

	var wait func() *vyrd.Report
	if *online {
		if lin {
			wait = log.StartEntryChecker(linearize.NewChecker(linSpec, linearize.Options{MaxStates: linearizeStates}))
		} else if temporal {
			wait = log.StartEntryChecker(vyrd.NewTemporalChecker(propSet, *failFst))
		} else {
			var err error
			wait, err = log.StartChecker(target.NewSpec(), opts...)
			if err != nil {
				fatal(err)
			}
		}
	}

	res := harness.RunOnLog(target, cfg, log)
	fmt.Printf("ran %s: %d threads x %d ops = %d methods in %v (%d log entries)\n",
		target.Name, cfg.Threads, cfg.OpsPerThread, res.Methods, res.Elapsed, log.Len())
	if err := log.SinkErr(); err != nil {
		fatal(err)
	}

	if *dump {
		core.WriteWitness(os.Stdout, log.Snapshot())
	}
	var report *vyrd.Report
	switch {
	case *online:
		report = wait()
	case lin:
		report = checkLin(log.Snapshot())
	case temporal:
		report = checkLTL(log.Snapshot())
	default:
		var err error
		report, err = vyrd.CheckEntries(log.Snapshot(), target.NewSpec(), opts...)
		if err != nil {
			fatal(err)
		}
	}
	finish(report)
}

func levelFor(m core.Mode) vyrd.Level {
	if m == core.ModeView {
		return vyrd.LevelView
	}
	return vyrd.LevelIO
}

func finish(report *vyrd.Report) {
	if jsonOutput {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
	} else {
		fmt.Println(report)
	}
	if !report.Ok() {
		os.Exit(1)
	}
	os.Exit(0)
}

// jsonOutput mirrors the -json flag for finish (set in main).
var jsonOutput bool

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vyrd:", err)
	os.Exit(2)
}
