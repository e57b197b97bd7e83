// Package repro's root benchmarks regenerate the paper's evaluation as
// testing.B benchmarks: one family per table (Tables 1-3 of Section 7),
// plus ablation benchmarks for the design choices DESIGN.md calls out
// (incremental view fingerprints, logging levels, checker throughput).
//
// cmd/vyrdbench produces the paper-shaped table renderings; these
// benchmarks expose the same measurements through `go test -bench`.
// Pipeline, codec and replay throughput are the benchmark's metrics
// (`go run ./benchmark`: online_methods_per_s, event.encode_ns,
// replay_refine_entries_per_s), not go-bench legs here.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/spec"
	"repro/vyrd"
)

func benchConfig(threads, ops int, seed int64, level vyrd.Level) harness.Config {
	return harness.Config{
		Threads:      threads,
		OpsPerThread: ops,
		KeyPool:      16,
		Shrink:       true,
		Seed:         seed,
		Level:        level,
	}
}

// BenchmarkTable1TimeToDetection measures, per subject, a full
// run-and-detect cycle on the buggy implementation with fail-fast view
// refinement, reporting the average number of methods executed before the
// first violation (the Table 1 metric) alongside ns/op.
func BenchmarkTable1TimeToDetection(b *testing.B) {
	for _, s := range bench.Subjects() {
		s := s
		for _, mode := range []core.Mode{core.ModeIO, core.ModeView} {
			mode := mode
			b.Run(s.Name+"/"+mode.String(), func(b *testing.B) {
				b.ReportAllocs()
				var methods, detected int64
				for i := 0; i < b.N; i++ {
					res := harness.Run(s.Buggy, benchConfig(8, 400, int64(i)+1, vyrd.LevelView))
					opts := []core.Option{core.WithMode(mode), core.WithFailFast(true)}
					if mode == core.ModeView {
						opts = append(opts, core.WithReplayer(s.Buggy.NewReplayer()))
					}
					rep, err := core.CheckEntries(res.Log.Snapshot(), s.Buggy.NewSpec(), opts...)
					if err != nil {
						b.Fatal(err)
					}
					if v := rep.First(); v != nil {
						methods += v.MethodsCompleted
						detected++
					}
				}
				if detected > 0 {
					b.ReportMetric(float64(methods)/float64(detected), "methods-to-detection")
				}
				b.ReportMetric(float64(detected)/float64(b.N), "detection-rate")
			})
		}
	}
}

// BenchmarkTable2LoggingOverhead measures the workload cost per logging
// level for each Table 2 subject; comparing the off/io/view variants gives
// the logging overheads the paper reports.
func BenchmarkTable2LoggingOverhead(b *testing.B) {
	subjects := []string{"Multiset-Vector", "java.util.Vector", "java.util.StringBuffer", "BLinkTree", "Cache"}
	levels := []vyrd.Level{vyrd.LevelOff, vyrd.LevelIO, vyrd.LevelView}
	for _, name := range subjects {
		s, ok := bench.SubjectByName(name)
		if !ok {
			b.Fatalf("unknown subject %s", name)
		}
		for _, level := range levels {
			level := level
			s := s
			b.Run(s.Name+"/"+level.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					harness.Run(s.Correct, benchConfig(8, 500, int64(i)+1, level))
				}
			})
		}
	}
}

// BenchmarkTable3Breakdown measures the four stages of Table 3 — program
// alone, program+logging, program+logging+online VYRD, and offline VYRD —
// for the paper's configurations.
func BenchmarkTable3Breakdown(b *testing.B) {
	cells := []struct {
		name    string
		threads int
		ops     int
	}{
		{"java.util.Vector", 20, 200},
		{"java.util.StringBuffer", 10, 30},
		{"BLinkTree", 10, 600},
		{"Cache", 10, 500},
	}
	for _, cell := range cells {
		s, ok := bench.SubjectByName(cell.name)
		if !ok {
			b.Fatalf("unknown subject %s", cell.name)
		}
		cfgOff := benchConfig(cell.threads, cell.ops, 1, vyrd.LevelOff)
		cfgView := benchConfig(cell.threads, cell.ops, 1, vyrd.LevelView)

		b.Run(s.Name+"/prog-alone", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				harness.Run(s.Correct, cfgOff)
			}
		})
		b.Run(s.Name+"/prog+logging", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				harness.Run(s.Correct, cfgView)
			}
		})
		b.Run(s.Name+"/prog+logging+vyrd-online", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				log := vyrd.NewLog(vyrd.LevelView)
				wait, err := log.StartChecker(s.Correct.NewSpec(),
					vyrd.WithMode(core.ModeView), vyrd.WithReplayer(s.Correct.NewReplayer()))
				if err != nil {
					b.Fatal(err)
				}
				harness.RunOnLog(s.Correct, cfgView, log)
				if rep := wait(); !rep.Ok() {
					b.Fatalf("unexpected violations:\n%s", rep)
				}
			}
		})
		b.Run(s.Name+"/vyrd-offline", func(b *testing.B) {
			b.ReportAllocs()
			res := harness.Run(s.Correct, cfgView)
			entries := res.Log.Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := core.CheckEntries(entries, s.Correct.NewSpec(),
					core.WithMode(core.ModeView), core.WithReplayer(s.Correct.NewReplayer()))
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Ok() {
					b.Fatalf("unexpected violations:\n%s", rep)
				}
			}
		})
	}
}

// BenchmarkAblationCheckerModes compares the checker's offline throughput
// in I/O vs view mode over the same recorded trace — the cost of the extra
// visibility view refinement buys (the Table 1 CPU-ratio column).
func BenchmarkAblationCheckerModes(b *testing.B) {
	s, _ := bench.SubjectByName("BLinkTree")
	res := harness.Run(s.Correct, benchConfig(8, 1000, 1, vyrd.LevelView))
	entries := res.Log.Snapshot()
	b.Run("io", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := core.CheckEntries(entries, s.Correct.NewSpec(), core.WithMode(core.ModeIO))
			if err != nil || !rep.Ok() {
				b.Fatalf("%v %v", err, rep)
			}
		}
	})
	b.Run("view", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := core.CheckEntries(entries, s.Correct.NewSpec(),
				core.WithMode(core.ModeView), core.WithReplayer(s.Correct.NewReplayer()))
			if err != nil || !rep.Ok() {
				b.Fatalf("%v %v", err, rep)
			}
		}
	})
}

// BenchmarkAblationQuiescentOnly contrasts per-commit view checking with
// the commit-atomicity-style quiescent-only granularity (Section 8) on
// buggy Cache traces: the metric of interest is the detection rate — under
// continuous load quiescent points are rare (Section 5.2), so the coarser
// granularity misses transient corruption.
func BenchmarkAblationQuiescentOnly(b *testing.B) {
	s, _ := bench.SubjectByName("Cache")
	variants := []struct {
		name string
		opt  []core.Option
	}{
		{"per-commit", nil},
		{"quiescent-only", []core.Option{core.WithQuiescentViewOnly(true)}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var detected, methods int64
			for i := 0; i < b.N; i++ {
				res := harness.Run(s.Buggy, benchConfig(8, 400, int64(i)+1, vyrd.LevelView))
				opts := append([]core.Option{
					core.WithMode(core.ModeView),
					core.WithReplayer(s.Buggy.NewReplayer()),
					core.WithFailFast(true),
				}, v.opt...)
				rep, err := core.CheckEntries(res.Log.Snapshot(), s.Buggy.NewSpec(), opts...)
				if err != nil {
					b.Fatal(err)
				}
				if f := rep.First(); f != nil {
					detected++
					methods += f.MethodsCompleted
				}
			}
			b.ReportMetric(float64(detected)/float64(b.N), "detection-rate")
			if detected > 0 {
				b.ReportMetric(float64(methods)/float64(detected), "methods-to-detection")
			}
		})
	}
}

// BenchmarkCommitDrivenCheckByWidth measures the commit-driven VYRD check
// on synthetic traces whose overlap width is controlled: batches of `width`
// fully-overlapped inserts of distinct elements, each batch separated by a
// quiescent observer. The check is linear in the trace regardless of width
// (the commit order pins the witness) — the property Section 2 sets against
// naive linearizability enumeration, whose state set grows exponentially
// with the width (internal/linearize's tests keep that baseline).
func BenchmarkCommitDrivenCheckByWidth(b *testing.B) {
	for _, width := range []int{2, 6, 10} {
		entries := overlappedTrace(20, width)
		b.Run(fmt.Sprintf("width-%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.CheckEntries(entries, spec.NewMultiset(), core.WithMode(core.ModeIO))
				if err != nil || !rep.Ok() {
					b.Fatalf("%v %v", err, rep)
				}
			}
		})
	}
}

// overlappedTrace builds `batches` batches of `width` fully-overlapped
// inserts (distinct elements, committed in call order) separated by
// quiescent lookups — correct by construction.
func overlappedTrace(batches, width int) []vyrd.Entry {
	log := vyrd.NewLog(vyrd.LevelIO)
	probes := make([]*vyrd.Probe, width)
	for i := range probes {
		probes[i] = log.NewProbe()
	}
	extra := log.NewProbe()
	elt := 0
	for bt := 0; bt < batches; bt++ {
		invs := make([]*vyrd.Invocation, width)
		for i := 0; i < width; i++ {
			invs[i] = probes[i].Call("Insert", elt+i)
		}
		for i := 0; i < width; i++ {
			invs[i].Commit("x")
		}
		for i := 0; i < width; i++ {
			invs[i].Return(true)
		}
		elt += width
		inv := extra.Call("LookUp", 1_000_000)
		inv.Return(false)
	}
	log.Close()
	return log.Snapshot()
}

// BenchmarkAblationDiagnostics measures the cost of keeping viewS clones
// for exact diffs (WithDiagnostics) versus fingerprint-only comparison —
// the incremental-computation design choice of Section 6.4.
func BenchmarkAblationDiagnostics(b *testing.B) {
	s, _ := bench.SubjectByName("Cache")
	res := harness.Run(s.Correct, benchConfig(8, 500, 1, vyrd.LevelView))
	entries := res.Log.Snapshot()
	b.Run("fingerprint-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := core.CheckEntries(entries, s.Correct.NewSpec(),
				core.WithMode(core.ModeView), core.WithReplayer(s.Correct.NewReplayer()))
			if err != nil || !rep.Ok() {
				b.Fatalf("%v %v", err, rep)
			}
		}
	})
	b.Run("with-diagnostic-clones", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := core.CheckEntries(entries, s.Correct.NewSpec(),
				core.WithMode(core.ModeView), core.WithReplayer(s.Correct.NewReplayer()),
				core.WithDiagnostics(true))
			if err != nil || !rep.Ok() {
				b.Fatalf("%v %v", err, rep)
			}
		}
	})
}
