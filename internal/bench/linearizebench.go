package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/linearize"
	"repro/internal/spec"
	"repro/vyrd"
)

// LinearizeConfig shapes the linearizability scaling table: synthetic
// java.util.Vector histories with a controlled overlap width, checked by
// the linearizability engine and by commit-pinned I/O refinement over the
// same log. (The Section 2 strawman the engine replaces is test code in
// internal/linearize; TestEngineBeatsBruteAtWidth16 pins the crossover.)
type LinearizeConfig struct {
	// Widths lists the overlap widths to measure (concurrently open
	// AddElement executions per history).
	Widths []int
}

// DefaultLinearizeConfig returns the checked-in table shape: widths 2-32.
func DefaultLinearizeConfig() LinearizeConfig {
	return LinearizeConfig{Widths: []int{2, 4, 6, 8, 12, 16, 24, 32}}
}

// LinearizeRow is one overlap width's measurement across the two
// checkers. Times are wall-clock for one verdict over the same history.
type LinearizeRow struct {
	Width        int
	Ops          int // method executions in the history
	EngineStates int64
	EngineNS     int64
	RefinementNS int64 // commit-pinned I/O refinement over the same entries
}

// linearizeHistory records a synthetic Vector history of the given overlap
// width through the real probe pipeline: w AddElement executions open
// before any returns, each committing (for the refinement column; the
// linearizability checkers never look at commits) and returning, then a
// quiescent Size observer pinning the final length. Distinct elements make
// every interleaving a distinct specification state — exactly the history
// family of the paper's Section 2 scaling argument.
func linearizeHistory(width int) []vyrd.Entry {
	lg := vyrd.NewLog(vyrd.LevelIO)
	invs := make([]*vyrd.Invocation, width)
	for i := 0; i < width; i++ {
		invs[i] = lg.NewProbe().Call("AddElement", i)
	}
	for i := 0; i < width; i++ {
		invs[i].Commit("added")
		invs[i].Return(nil)
	}
	p := lg.NewProbe()
	inv := p.Call("Size")
	inv.Return(width)
	lg.Close()
	return lg.Snapshot()
}

// LinearizeTable measures the two checkers over one synthetic history per
// width. The histories are deterministic, so rows are reproducible
// modulo machine speed.
func LinearizeTable(cfg LinearizeConfig) ([]LinearizeRow, error) {
	var rows []LinearizeRow
	for _, w := range cfg.Widths {
		entries := linearizeHistory(w)
		row := LinearizeRow{Width: w, Ops: w + 1}

		start := time.Now()
		en := linearize.CheckTrace(entries, linearize.For(spec.NewVector), linearize.Options{})
		row.EngineNS = time.Since(start).Nanoseconds()
		row.EngineStates = en.StatesExplored
		if en.Aborted || !en.Linearizable {
			return nil, fmt.Errorf("bench: engine failed a correct width-%d history: %s", w, en)
		}

		start = time.Now()
		ref, err := core.CheckEntries(entries, spec.NewVector(), core.WithMode(core.ModeIO))
		row.RefinementNS = time.Since(start).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("bench: refinement at width %d: %w", w, err)
		}
		if !ref.Ok() {
			return nil, fmt.Errorf("bench: refinement rejected a correct width-%d history:\n%s", w, ref)
		}

		rows = append(rows, row)
	}
	return rows, nil
}

// LinearizeMemoRow is one session-count point of the segment memo cache
// measurement: the same recorded FixedDomain history streamed repeatedly
// (the fleet shape — many sessions replaying one producer's log), cold
// first, then warm. The hit rate and the warm/cold time ratio quantify
// what the persistent cache buys a multi-session box.
type LinearizeMemoRow struct {
	Sessions int // repeated streams of the identical history
	Ops      int
	ColdNS   int64 // first stream: populates the cache
	WarmNS   int64 // mean of the remaining streams
	Lookups  int64
	Hits     int64
	HitRate  float64
	Entries  int // distinct cached searches after the run
}

// linearizeMemoHistory records a repetitive multiset history through the
// real probe pipeline: rounds of width overlapping Inserts on a small key
// domain, each closed by a LookUp observer. Quiescent cuts after every
// round make it interval-checkable, and the small domain makes the same
// (frontier state, segment) pairs recur — the workload the segment memo
// cache exists for. (The Vector histories of the main table never touch
// the cache: order-sensitive specs defer to one engine search at Finish.)
func linearizeMemoHistory(rounds, width int) []vyrd.Entry {
	lg := vyrd.NewLog(vyrd.LevelIO)
	for r := 0; r < rounds; r++ {
		k := r % 3
		invs := make([]*vyrd.Invocation, width)
		for i := 0; i < width; i++ {
			invs[i] = lg.NewProbe().Call("Insert", k)
		}
		for i := 0; i < width; i++ {
			invs[i].Commit("ins")
			invs[i].Return(true)
		}
		look := lg.NewProbe().Call("LookUp", k)
		look.Return(true)
		del := lg.NewProbe().Call("Delete", k)
		del.Return(true)
	}
	lg.Close()
	return lg.Snapshot()
}

// LinearizeMemoTable measures the segment memo cache across repeated
// streams of one history, as fleet sessions replay it.
func LinearizeMemoTable(sessions []int) ([]LinearizeMemoRow, error) {
	entries := linearizeMemoHistory(64, 4)
	sp := linearize.For(spec.NewMultiset)
	var rows []LinearizeMemoRow
	for _, n := range sessions {
		if n < 2 {
			return nil, fmt.Errorf("bench: memo row needs at least 2 sessions (cold + warm)")
		}
		linearize.ResetSegmentCache()
		start := time.Now()
		rep := linearize.CheckEntries(entries, sp, linearize.Options{})
		coldNS := time.Since(start).Nanoseconds()
		if !rep.Ok() {
			return nil, fmt.Errorf("bench: memo history flagged cold: %s", rep)
		}
		start = time.Now()
		for i := 1; i < n; i++ {
			rep := linearize.CheckEntries(entries, sp, linearize.Options{})
			if !rep.Ok() {
				return nil, fmt.Errorf("bench: memo history flagged warm (session %d): %s", i, rep)
			}
		}
		warmNS := time.Since(start).Nanoseconds() / int64(n-1)
		st := linearize.SegmentCacheStats()
		row := LinearizeMemoRow{
			Sessions: n,
			Ops:      int(rep.MethodsCompleted),
			ColdNS:   coldNS,
			WarmNS:   warmNS,
			Lookups:  st.Lookups,
			Hits:     st.Hits,
			Entries:  st.Entries,
		}
		if st.Lookups > 0 {
			row.HitRate = float64(st.Hits) / float64(st.Lookups)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteLinearizeMemoTable renders the memo-cache rows.
func WriteLinearizeMemoTable(w io.Writer, rows []LinearizeMemoRow) {
	fmt.Fprintln(w, "Segment memo cache: identical multiset history streamed by N sessions (cold populates, warm hits)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Sessions\tOps\tCold\tWarm/avg\tLookups\tHits\tHit rate\tCached")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%v\t%v\t%d\t%d\t%.1f%%\t%d\n",
			r.Sessions, r.Ops,
			time.Duration(r.ColdNS).Round(time.Microsecond),
			time.Duration(r.WarmNS).Round(time.Microsecond),
			r.Lookups, r.Hits, 100*r.HitRate, r.Entries)
	}
	tw.Flush()
}

// LinearizeParallelRow is one worker-pool width's measurement over a fixed
// partitioned history: the same component searches fanned over Parallel
// workers. Serial (width 1) is the baseline the speedup column divides by.
type LinearizeParallelRow struct {
	Workers    int
	Components int
	Ops        int
	States     int64
	NS         int64
}

// linearizeParallelHistory records a partitioned multiset history through
// the real probe pipeline: keys independent element families, each with
// rounds of width overlapping Inserts closed by a LookUp observer — many
// components of equal, nontrivial search cost, the shape the per-component
// worker pool is built for.
func linearizeParallelHistory(keys, width, rounds int) []vyrd.Entry {
	lg := vyrd.NewLog(vyrd.LevelIO)
	for k := 0; k < keys; k++ {
		for r := 0; r < rounds; r++ {
			invs := make([]*vyrd.Invocation, width)
			for i := 0; i < width; i++ {
				invs[i] = lg.NewProbe().Call("Insert", k)
			}
			for i := 0; i < width; i++ {
				invs[i].Commit("ins")
				invs[i].Return(true)
			}
			look := lg.NewProbe().Call("LookUp", k)
			look.Return(true)
		}
	}
	lg.Close()
	return lg.Snapshot()
}

// LinearizeParallelTable measures the component fan-out at each worker-pool
// width over one deterministic history. The verdict, witness and state
// count are pinned identical across widths by the parallel_test suite; this
// table records the wall-clock effect alone.
func LinearizeParallelTable(widths []int) ([]LinearizeParallelRow, error) {
	entries := linearizeParallelHistory(32, 6, 24)
	sp := linearize.For(spec.NewMultiset)
	ops := linearize.Extract(entries, sp.IsMutator)
	var rows []LinearizeParallelRow
	for _, workers := range widths {
		start := time.Now()
		res := linearize.Check(ops, sp, linearize.Options{MaxStates: 1 << 24, Parallel: workers})
		ns := time.Since(start).Nanoseconds()
		if res.Aborted || !res.Linearizable {
			return nil, fmt.Errorf("bench: parallel linearize (%d workers) failed a correct history: %s", workers, res.String())
		}
		rows = append(rows, LinearizeParallelRow{
			Workers:    workers,
			Components: res.Components,
			Ops:        len(ops),
			States:     res.StatesExplored,
			NS:         ns,
		})
	}
	return rows, nil
}

// WriteLinearizeParallelTable renders the worker-width scaling rows.
func WriteLinearizeParallelTable(w io.Writer, prows []LinearizeParallelRow) {
	fmt.Fprintln(w, "Parallel component checking: one partitioned multiset history, worker-pool width sweep")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Workers\tComponents\tOps\tStates\tTime\tSpeedup")
	var base float64
	for _, r := range prows {
		if r.Workers <= 1 {
			base = float64(r.NS)
			break
		}
	}
	for _, r := range prows {
		speedup := "-"
		if base > 0 && r.Workers > 1 {
			speedup = fmt.Sprintf("%.2fx", base/float64(r.NS))
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%v\t%s\n",
			r.Workers, r.Components, r.Ops, r.States,
			time.Duration(r.NS).Round(time.Microsecond), speedup)
	}
	tw.Flush()
}

// WriteLinearizeTable renders the scaling rows: the engine and the
// commit-pinned refinement checker stay effectively linear in the width.
func WriteLinearizeTable(w io.Writer, rows []LinearizeRow) {
	fmt.Fprintln(w, "Linearizability checking: engine vs refinement (synthetic Vector, w overlapped appends)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Width\tOps\tEngine states\tEngine time\tRefinement time")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%v\t%v\n",
			r.Width, r.Ops,
			r.EngineStates, time.Duration(r.EngineNS).Round(time.Microsecond),
			time.Duration(r.RefinementNS).Round(time.Microsecond))
	}
	tw.Flush()
}
