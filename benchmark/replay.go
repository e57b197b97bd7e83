package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/event"
	"repro/internal/remote"
	"repro/internal/wal"
	"repro/vyrd"
)

// engine is one of the three verdict engines, built through the registry
// factory the way vyrdd builds it for a session.
type engine struct {
	key    string // span and per-layer metric prefix: core, linearize, ltl
	mode   string // remote.Hello.Mode
	metric string // end-to-end metric of offline-replay
	build  func(f remote.SpecFactory) (vyrd.EntryChecker, error)
}

func engines() [3]engine {
	return [3]engine{
		{key: "core", mode: "view", metric: "replay_refine_entries_per_s",
			build: func(f remote.SpecFactory) (vyrd.EntryChecker, error) {
				return vyrd.NewChecker(f.NewSpec(), vyrd.WithMode(vyrd.ModeView), vyrd.WithReplayer(f.NewReplayer()))
			}},
		{key: "linearize", mode: "linearize", metric: "replay_linearize_entries_per_s",
			build: func(f remote.SpecFactory) (vyrd.EntryChecker, error) {
				if f.NewLinearizer == nil {
					return nil, fmt.Errorf("%s has no linearizer", f.Name)
				}
				return f.NewLinearizer(), nil
			}},
		{key: "ltl", mode: "ltl", metric: "replay_ltl_entries_per_s",
			build: func(f remote.SpecFactory) (vyrd.EntryChecker, error) {
				return f.NewTemporal(nil, false)
			}},
	}
}

// replayed is one file -> verdict pass with its stage times.
type replayed struct {
	entries int64
	total   time.Duration
	decode  time.Duration // inside wal.ReadFile
	check   time.Duration // Feed loop and Finish
	report  *vyrd.Report
	checker vyrd.EntryChecker
}

// replayFile is the CI path: open a persisted log, decode it, feed every
// entry to one engine, finish.
func (r *run) replayFile(path string, f remote.SpecFactory, en engine, parent, rep int) (replayed, error) {
	start := time.Now()
	file, err := os.Open(path)
	if err != nil {
		return replayed{}, err
	}
	defer file.Close()
	opened := time.Now()
	endDecode, _ := r.tr.begin("wal.ReadFile", parent, rep)
	entries, err := wal.ReadFile(file)
	endDecode()
	decoded := time.Now()
	if err != nil {
		return replayed{}, fmt.Errorf("%s: %w", path, err)
	}
	c, err := en.build(f)
	if err != nil {
		return replayed{}, err
	}
	built := time.Now()
	endFeed, _ := r.tr.begin(en.key+".Feed", parent, rep)
	for i := range entries {
		c.Feed(entries[i])
	}
	endFeed()
	endFinish, _ := r.tr.begin(en.key+".Finish", parent, rep)
	report := c.Finish()
	endFinish()
	done := time.Now()
	return replayed{
		entries: int64(len(entries)),
		total:   done.Sub(start),
		decode:  decoded.Sub(opened),
		check:   done.Sub(built),
		report:  report,
		checker: c,
	}, nil
}

// cleanVerdict is the gate on a clean input: an ok report that accounts
// for every entry and every completed method of the trace.
func cleanVerdict(what string, rep *vyrd.Report, entries, returns int64) error {
	switch {
	case rep == nil:
		return fmt.Errorf("%s: no report", what)
	case !rep.Ok():
		return fmt.Errorf("%s: %s", what, rep)
	case rep.EntriesProcessed != entries:
		return fmt.Errorf("%s: entries_processed %d, fed %d", what, rep.EntriesProcessed, entries)
	case rep.MethodsCompleted != returns:
		return fmt.Errorf("%s: methods_completed %d, trace has %d returns", what, rep.MethodsCompleted, returns)
	}
	return nil
}

func countReturns(entries []vyrd.Entry) int64 {
	var n int64
	for i := range entries {
		if entries[i].Kind == event.KindReturn {
			n++
		}
	}
	return n
}

// offlineReplay is file -> verdict for each engine over each recorded
// trace, plus the planted-bug gate: every engine must flag its witness.
func (r *run) offlineReplay(out *results) pathRun {
	const w = "offline-replay"
	for i, en := range engines() {
		wit := r.fix.witnesses[i]
		f, _ := r.reg.Lookup(wit.subject)
		c, err := en.build(f)
		if err == nil {
			for _, e := range wit.entries {
				c.Feed(e)
			}
			if c.Finish().Ok() {
				err = fmt.Errorf("%s engine passed the planted-bug witness of %s", en.mode, wit.subject)
			}
		}
		out.op(w, err)
	}

	rep := func(rep int) {
		endRep, repSpan := r.tr.begin(w, -1, rep)
		defer endRep()
		for _, en := range engines() {
			for i := range r.mix {
				m := &r.mix[i]
				var rates []float64
				for _, rec := range r.fix.traces[m.key] {
					settle()
					p, err := r.replayFile(rec.path, m.factory, en, repSpan, rep)
					if rep < 0 {
						continue
					}
					if err == nil {
						err = cleanVerdict(m.name+" "+en.mode, p.report, rec.entries, rec.returns)
					}
					out.op(w, err)
					if err != nil {
						continue
					}
					rates = append(rates, rate(p.entries, p.total))
					if r.tr != nil {
						r.replayLayers(out, en, m, p)
					}
				}
				if len(rates) > 0 {
					// The subject's rate over its recordings. What differs
					// from run to run is the recordings, not the timing, and
					// over five of them the geometric mean uses every one
					// where the median uses the middle one.
					out.addPart(en.metric, m.key, "entries/s", geomean(rates))
				}
			}
		}
	}
	return pathRun{rep: rep}
}

// replayLayers records the stage costs of one traced replay pass. The
// checker's cost is its Feed loop plus Finish (the linearizability engine
// defers part of its search to the end of the log), per entry.
func (r *run) replayLayers(out *results, en engine, m *mixSubject, p replayed) {
	out.add("event.decode_ns", "ns", perItem(p.decode, p.entries))
	// The serial path's residual: the share of file -> verdict spent in
	// neither stage (opening the file, building the checker), taken within
	// one replay so that both sides of the ratio saw the same machine.
	out.add("offline-replay.residual_pct", "%", 100*(1-float64(p.decode+p.check)/float64(p.total)))
	sum := p.report.Summary()
	perK := func(n int64) float64 { return 1000 * float64(n) / float64(p.entries) }
	switch en.key {
	case "core":
		out.add("core.feed_view_ns."+m.key, "ns", perItem(p.check, p.entries))
		out.add("core.commits", "count", perK(sum.CommitsApplied))
		out.add("core.observers", "count", perK(sum.ObserversChecked))
		out.add("core.writes_replayed", "count", perK(sum.WritesReplayed))
		out.add("core.views_compared", "count", perK(sum.ViewsCompared))
	case "linearize":
		out.add("linearize.feed_ns."+m.key, "ns", perItem(p.check, p.entries))
		if se, ok := p.checker.(interface{ StatesExplored() int64 }); ok && sum.MethodsCompleted > 0 {
			out.add("linearize.states_per_op", "count", float64(se.StatesExplored())/float64(sum.MethodsCompleted))
		}
		if hit, ok := segcacheHitRate(); ok {
			out.add("linearize.segcache_hit_rate", "%", hit)
		}
	case "ltl":
		out.add("ltl.feed_ns", "ns", perItem(p.check, p.entries))
		out.add("ltl.props", "count", float64(sum.PropsSatisfied+sum.PropsViolated+sum.PropsInconclusive))
	}
}
