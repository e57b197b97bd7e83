// Command benchmark is the repository's one performance instrument: six
// workloads over the four user-facing paths (live online checking, offline
// file -> verdict, the vyrdd fleet path, vyrdx schedule search), fifteen
// end-to-end metrics measured with tracing off, and a traced run that prices
// every layer from outside by timing calls into its public functions. A
// workload measures its own path at full size for -seconds; the other five
// paths run beside it as labelled background passes, because the driver
// wants every end-to-end metric from every workload.
//
//	go run ./benchmark                      all six workloads
//	go run ./benchmark -workload fleet-churn -seed 2 -seconds 9
//	go run ./benchmark -trace               also the per-layer metrics and the span file
//	go run ./benchmark -quick               smoke run, numbers not for comparison
//	go run ./benchmark -out a.json          machine-readable results
//	go run ./benchmark -compare a.json b.json
//
// See README.md in this directory for what each number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long a workload
// measures its own path.
const defaultSeconds = 9

// setupRounds is how many times set-up runs for the setup_s median.
const setupRounds = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	out      string
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	var compare bool
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "measure only this workload (default: all six, one after the other)")
	fs.Int64Var(&o.seed, "seed", 1, "derives every harness seed; the program under test receives only generated inputs")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "how long a workload measures its own path (the driver passes BENCHMARK.json's run_seconds)")
	fs.BoolVar(&o.trace, "trace", false, "also run traced: per-layer metrics, cost table, span file")
	fs.BoolVar(&o.quick, "quick", false, "smoke run: tiny inputs, 2 repetitions, numbers not for comparison")
	fs.StringVar(&o.out, "out", "", "write machine-readable results to this file")
	fs.BoolVar(&compare, "compare", false, "compare two -out files: benchmark -compare a.json b.json")
	if err := fs.Parse(joinBoolValue(args, "trace")); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		fmt.Fprintf(stderr, "GOMAXPROCS=%d exceeds NumCPU=%d: an oversubscribed box cannot carry these numbers\n", procs, cpus)
		return 2
	}

	selected := workloads()
	if o.quick {
		// One background pass over the six paths, none of them anyone's own,
		// is the whole smoke run.
		selected = []workload{{name: "quick"}}
	}
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", o.workload)
			return 2
		}
		selected = []workload{w}
	}

	file := resultFile{Env: environment(o), Quick: o.quick}
	failed := false
	for _, w := range selected {
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			return 1
		}
		exported := res.export(w.name)
		printWorkload(stdout, exported, o)
		file.Workloads = append(file.Workloads, exported)
		failed = failed || exported.Failed > 0 || len(exported.Missing) > 0
	}
	if o.out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if len(selected) > 1 {
		printOwn(stdout, file.Workloads)
	}
	if len(selected) == 1 {
		// The driver's contract: the last line of standard output is one
		// JSON object with the run's verdict and metrics.
		fmt.Fprintln(stdout, file.Workloads[0].driverLine(o.trace))
	}
	if failed {
		return 1
	}
	return 0
}

// joinBoolValue rewrites "-name 0|1|true|false" into "-name=value", so the
// boolean flag accepts the driver's "--trace 1" as well as a bare "-trace".
func joinBoolValue(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// envInfo is what a number is meaningless without.
type envInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Threads    int    `json:"generator_threads"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func environment(o options) envInfo {
	commit := "unknown" // a driver checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Threads:    generatorThreads(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       o.seed,
		Seconds:    o.seconds,
	}
}

// workloadResult is one workload's untraced and (optionally) traced
// numbers.
type workloadResult struct {
	plain  *results
	traced *results // nil unless -trace
}

// runWorkload sets up, measures the workload's own path with the other five
// as background, optionally repeats everything traced, and tears down.
func runWorkload(w workload, o options) (*workloadResult, error) {
	sz := sizesFor(w.name)
	switch {
	case o.quick:
		sz = quickSizes()
	case o.trace:
		sz = tracedSizes(sz)
	}
	dir, err := mkScratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r, err := newRun(o.seed, sz, dir)
	if err != nil {
		return nil, err
	}

	plain := newResults()
	rounds := setupRounds
	if o.quick {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		if r.fix != nil {
			if err := r.fix.tearDown(); err != nil {
				return nil, err
			}
		}
		settle()
		start := time.Now()
		if r.fix, err = r.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		plain.add("setup_s", "s", time.Since(start).Seconds())
	}
	defer r.fix.tearDown()

	// -seconds is spent on the own path. A traced invocation runs everything
	// twice and a quick one is a smoke run: both stop at their least
	// repetitions.
	budget := time.Duration(o.seconds) * time.Second
	if o.trace || o.quick {
		budget = 0
	}
	r.pass(w, budget, plain)

	wr := &workloadResult{plain: plain}
	if o.trace {
		r.tr = newTracer()
		wr.traced = newResults()
		r.pass(w, 0, wr.traced)
		if err := r.layers(wr.traced); err != nil {
			return nil, fmt.Errorf("isolated stages: %w", err)
		}
		costTable(plain, wr.traced)
		if err := r.tr.writeFile(".bench_build/spans-" + w.name + ".json"); err != nil {
			return nil, err
		}
	}
	return wr, nil
}

// pass runs all six paths once through the schedule, own's path as the
// measured one and the rest as background.
func (r *run) pass(own workload, budget time.Duration, out *results) {
	ws := workloads()
	paths := make([]pathRun, len(ws))
	took := make([]float64, len(ws))
	at := -1
	for i, w := range ws {
		paths[i] = w.path(r, out)
		if w.name == own.name {
			at = i
		}
	}
	r.ref = r.ref[:0]
	r.schedule(paths, at, budget, took)
	out.referenceMs = median(r.ref)
	for i, w := range ws {
		out.pathSeconds[w.name] += took[i]
	}
}

// costTable derives the cross-run figures of a traced invocation: what
// tracing cost each workload's own end-to-end metrics, and which side of
// the live pipeline is the bottleneck.
func costTable(plain, traced *results) {
	better := make(map[string]string)
	for _, d := range endToEnd() {
		better[d.Name] = d.Better
	}
	for _, w := range workloads() {
		var slow []float64
		for _, name := range w.own {
			u, okU := plain.value(name)
			t, okT := traced.value(name)
			if !okU || !okT || u == 0 {
				continue
			}
			if better[name] == higher {
				slow = append(slow, 100*(u-t)/u)
			} else {
				slow = append(slow, 100*(t-u)/u)
			}
		}
		if len(slow) > 0 {
			sum := 0.0
			for _, s := range slow {
				sum += s
			}
			traced.set("trace_overhead_pct."+w.name, "%", sum/float64(len(slow)))
		}
	}

	// The verifier is the bottleneck when feeding it one entry costs more
	// than the T producers take, wall-clock, to emit one.
	var feed []float64
	for _, m := range mixSubjects() {
		if v, ok := traced.value("core.feed_view_ns." + m.key); ok {
			feed = append(feed, v)
		}
	}
	if producer, ok := traced.value("online-live.producer_ns"); ok && len(feed) > 0 {
		bound := 0.0
		if geomean(feed) > producer {
			bound = 1
		}
		traced.set("online-live.verifier_bound", "count", bound)
	}
}
