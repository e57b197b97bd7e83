package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/linearize"
	"repro/internal/remote"
	"repro/vyrd"
)

// mixSubject is one subject of the measured mix: the key used in metric
// names and the registry name it resolves through.
type mixSubject struct {
	key  string
	name string
	// resolved in newRun
	target  harness.Target
	factory remote.SpecFactory
}

// The subject mix. Multiset-Vector is deliberately absent: its
// program-alone rate is two orders of magnitude below the others, so a mix
// containing it measures that subject and not VYRD (see README).
func mixSubjects() []mixSubject {
	return []mixSubject{
		{key: "msarray", name: "Multiset-Array"},
		{key: "jvector", name: "java.util.Vector"},
		{key: "blinktree", name: "BLinkTree"},
		{key: "cache", name: "Cache"},
	}
}

// harnessKeyPool is the shared key pool every generated harness run draws
// from (shrinking to a fifth over the run, the paper's Section 7.1 recipe).
const harnessKeyPool = 64

// onlineWindow is the bounded-memory window of every live pipeline here.
const onlineWindow = 1 << 14

// run is the state shared by every workload of one benchmark invocation.
type run struct {
	T     int   // generator goroutines / connections, min(NumCPU, 4)
	seed  int64 // the only source of input randomness
	sz    sizes
	dir   string // scratch directory inside the checkout
	tr    *tracer
	reg   *remote.Registry
	mix   []mixSubject
	bySub map[string]*mixSubject

	fix *fixtures // set-up products; see setup.go

	ref []float64 // refKernel's time before every repetition of the current pass, ms
}

// generatorThreads is T: load comes from this many goroutines or
// connections, never more, so the generator does not oversubscribe the box.
func generatorThreads() int { return min(runtime.NumCPU(), 4) }

func newRun(seed int64, sz sizes, dir string) (*run, error) {
	r := &run{
		T:     generatorThreads(),
		seed:  seed,
		sz:    sz,
		dir:   dir,
		reg:   bench.Registry(),
		mix:   mixSubjects(),
		bySub: make(map[string]*mixSubject),
	}
	for i := range r.mix {
		m := &r.mix[i]
		s, ok := bench.SubjectByName(m.name)
		if !ok {
			return nil, fmt.Errorf("subject %q is not registered", m.name)
		}
		f, ok := r.reg.Lookup(m.name)
		if !ok {
			return nil, fmt.Errorf("subject %q has no registry factory", m.name)
		}
		m.target, m.factory = s.Correct, f
		r.bySub[m.key] = m
	}
	return r, nil
}

// seedFor derives an independent stream seed from the run seed and a label
// (splitmix64 over an FNV-1a of the label), so adding a workload never
// shifts another workload's inputs.
func (r *run) seedFor(label string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 1099511628211
	}
	z := h + uint64(r.seed)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1) // non-negative: harness seeds are added to
}

func (r *run) harnessConfig(ops int, seed int64, level vyrd.Level, lopts vyrd.LogOptions) harness.Config {
	return harness.Config{
		Threads:      r.T,
		OpsPerThread: ops,
		KeyPool:      harnessKeyPool,
		Shrink:       true,
		Seed:         seed,
		Level:        level,
		LogOptions:   lopts,
	}
}

// settle puts the process in the same state before every timed repetition:
// garbage from the previous one collected, and the linearizability
// engine's process-wide segment memo empty. Without both, the same input
// measured 1.0 s / 3.5 s / 6.8 s back to back.
func settle() {
	linearize.ResetSegmentCache()
	runtime.GC()
}

// results collects, per metric name, one value per timed repetition, as
// measured.
type results struct {
	unit map[string]string
	reps map[string][]float64
	// parts holds the per-subject (or per-cell) repetitions behind a mix
	// metric: metric -> part -> one value per repetition.
	parts map[string]map[string][]float64
	// fixed holds metrics that are one figure, not a median of repetitions.
	fixed     map[string]float64
	attempted map[string]int64
	failed    map[string]int64
	failures  []string
	// repeated counts schedule searches run again because their schedule was
	// not reproducible; see explore.go.
	repeated int64
	// unreproducible counts the searches that stayed so through every repeat,
	// and notes names them; they are reported, not failed.
	unreproducible int64
	notes          []string
	// pathSeconds is the wall time each path took, warm-up included.
	pathSeconds map[string]float64
	// referenceMs is the median of refKernel over the pass; see reference.go.
	referenceMs float64
}

func newResults() *results {
	return &results{
		unit:      make(map[string]string),
		reps:      make(map[string][]float64),
		parts:     make(map[string]map[string][]float64),
		fixed:     make(map[string]float64),
		attempted: make(map[string]int64),
		failed:    make(map[string]int64),

		pathSeconds: make(map[string]float64),
	}
}

// add records one repetition's value of a metric.
func (r *results) add(name, unit string, v float64) {
	r.unit[name] = unit
	r.reps[name] = append(r.reps[name], v)
}

// addPart records one repetition's value of one part (subject, cell) of a
// mix metric.
func (r *results) addPart(metric, part, unit string, v float64) {
	r.unit[metric] = unit
	if r.parts[metric] == nil {
		r.parts[metric] = make(map[string][]float64)
	}
	r.parts[metric][part] = append(r.parts[metric][part], v)
}

// set records a metric that is one figure, not a median of repetitions.
func (r *results) set(name, unit string, v float64) {
	r.unit[name] = unit
	r.fixed[name] = v
}

// op counts one checked operation of a workload; a non-nil problem makes
// it a failed one.
func (r *results) op(workload string, problem error) {
	r.attempted[workload]++
	if problem != nil {
		r.failed[workload]++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, workload+": "+problem.Error())
		}
	}
}

// stuck counts one schedule search whose schedule could not be run again
// however often it was repeated.
func (r *results) stuck(what string) {
	r.unreproducible++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, unreproducible+": "+what)
	}
}

// figure returns a metric's reported value and the per-repetition rows behind
// it. A metric recorded in parts is a mix: its value is the geometric mean of
// the per-part medians, its rows the per-repetition geometric means across
// parts.
func (r *results) figure(name string) (value float64, rows []float64, ok bool) {
	if v, ok := r.fixed[name]; ok {
		return v, nil, true
	}
	if parts := r.parts[name]; len(parts) > 0 {
		var byRow [][]float64
		var meds []float64
		for _, xs := range parts {
			for i, x := range xs {
				if i == len(byRow) {
					byRow = append(byRow, nil)
				}
				byRow[i] = append(byRow[i], x)
			}
			meds = append(meds, median(xs))
		}
		for _, row := range byRow {
			rows = append(rows, geomean(row))
		}
		return geomean(meds), rows, true
	}
	if rows = r.reps[name]; len(rows) == 0 {
		return 0, nil, false
	}
	return median(rows), rows, true
}

func (r *results) value(name string) (float64, bool) {
	v, _, ok := r.figure(name)
	return v, ok
}

// pathRun is one path prepared to run: rep executes one repetition (rep < 0
// is the discarded warm-up: caches fill, lazy set-up finishes, the symbol
// interner learns the subject's names) and finish, when not nil, runs once
// after the last one.
type pathRun struct {
	rep    func(rep int)
	finish func()
	cold   bool // no warm-up repetition
	// bgReps, when not 0, replaces sizes.bgReps for this path's background
	// pass.
	bgReps int
	// least is a floor on the timed repetitions in either role, for a
	// per-layer percentile that needs the samples.
	least int
}

// floorReps is the least timed repetitions any path runs, however slow the
// box: a median needs three.
const floorReps = 3

// schedule runs the prepared paths. The workload's own path (own; -1 for
// none) repeats while another repetition fits into budget, which counts its
// time alone, and at least floorReps times; with no budget (traced and quick
// invocations) it runs sizes.ownReps. Every other path runs its fixed
// background pass, cut short at sizes.bgCap once it has floorReps. Repetitions go
// round-robin (each round gives every path that still owes one a repetition,
// and the own path its share of the budget), so a metric's repetitions are
// spread over the run and a burst of interference on a shared box spoils at
// most one of them.
func (r *run) schedule(paths []pathRun, own int, budget time.Duration, took []float64) {
	ran := make([]int, len(paths)) // repetitions run, warm-up included
	run := func(i, rep int) {
		r.ref = append(r.ref, ms(refKernel()))
		start := time.Now()
		paths[i].rep(rep)
		took[i] += time.Since(start).Seconds()
		ran[i]++
	}
	need := make([]int, len(paths))
	floor := make([]int, len(paths))
	limit := make([]float64, len(paths)) // seconds; 0 for none
	rounds := 0
	for i, p := range paths {
		need[i], limit[i] = r.sz.bgReps, r.sz.bgCap.Seconds()
		if p.bgReps != 0 {
			need[i] = p.bgReps
		}
		if i == own {
			need[i], limit[i] = r.sz.ownReps, budget.Seconds()
		}
		need[i] = max(need[i], p.least)
		floor[i] = min(need[i], max(floorReps, p.least))
		rounds = max(rounds, need[i])
		if !p.cold {
			run(i, -1)
		}
	}
	done := make([]int, len(paths))
	// fits says whether path i may run another repetition: always below the
	// floor, and above it while one more of its average length stays within
	// the path's limit.
	fits := func(i int, within float64) bool {
		return done[i] < floor[i] || within == 0 || took[i]+took[i]/float64(ran[i]) <= within
	}
	for k := 0; k < rounds; k++ {
		for i := range paths {
			if done[i] < need[i] && fits(i, limit[i]) {
				run(i, done[i])
				done[i]++
			}
		}
		if own < 0 || budget == 0 {
			continue
		}
		share := budget.Seconds() * float64(k+1) / float64(rounds)
		for done[own] >= floor[own] && fits(own, share) {
			run(own, done[own])
			done[own]++
		}
	}
	for _, p := range paths {
		if p.finish != nil {
			p.finish()
		}
	}
}

func mkScratch() (string, error) {
	// .bench_build is the one directory of a checkout the driver expects
	// build products in; everything this benchmark writes goes below it.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "vyrd-bench-")
}
