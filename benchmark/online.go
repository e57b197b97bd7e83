package main

import (
	"fmt"
	"time"

	"repro/internal/harness"
	"repro/vyrd"
)

// onlinePass is one timed pass of the live path over one subject.
type onlinePass struct {
	methods int64
	entries int64
	elapsed time.Duration // what the user waits for: run, or run to verdict
	running time.Duration // the harness threads alone
	stats   vyrd.LogStats
}

// progAlone runs the subject with logging off: the paper's "program alone"
// column, and the guard on changes to the subjects themselves.
func (r *run) progAlone(m *mixSubject, ops int, seed int64) onlinePass {
	res := harness.Run(m.target, r.harnessConfig(ops, seed, vyrd.LevelOff, vyrd.LogOptions{}))
	return onlinePass{methods: res.Methods, elapsed: res.Elapsed, running: res.Elapsed}
}

// logged runs the subject at view level into a truncating log nobody
// reads: subject + probe + append, bounded memory, no checker.
func (r *run) logged(m *mixSubject, ops int, seed int64) onlinePass {
	res := harness.Run(m.target, r.harnessConfig(ops, seed, vyrd.LevelView, vyrd.LogOptions{Truncate: true}))
	return onlinePass{methods: res.Methods, entries: res.LogStats.Appends, elapsed: res.Elapsed, running: res.Elapsed, stats: res.LogStats}
}

// online runs the subject at view level with the refinement checker on its
// own goroutine behind a bounded window, timed until the verdict is in
// hand.
func (r *run) online(m *mixSubject, ops int, seed int64, parent, rep int) (onlinePass, error) {
	log := vyrd.NewLogWith(vyrd.LevelView, vyrd.LogOptions{Window: onlineWindow})
	wait, err := log.StartChecker(m.factory.NewSpec(),
		vyrd.WithMode(vyrd.ModeView), vyrd.WithReplayer(m.factory.NewReplayer()))
	if err != nil {
		return onlinePass{}, err
	}
	cfg := r.harnessConfig(ops, seed, vyrd.LevelView, vyrd.LogOptions{})
	start := time.Now()
	endRun, _ := r.tr.begin("harness.RunOnLog", parent, rep)
	res := harness.RunOnLog(m.target, cfg, log)
	endRun()
	endWait, _ := r.tr.begin("core.wait", parent, rep)
	report := wait()
	endWait()
	p := onlinePass{methods: res.Methods, entries: res.LogStats.Appends, elapsed: time.Since(start), running: res.Elapsed, stats: log.Stats()}
	switch {
	case !report.Ok():
		return p, fmt.Errorf("%s online: %s", m.name, report)
	case report.EntriesProcessed != p.entries:
		return p, fmt.Errorf("%s online: checker saw %d of %d entries", m.name, report.EntriesProcessed, p.entries)
	}
	return p, nil
}

// onlineLive is the paper's Table 2/3 columns, live: per repetition and
// subject, program alone, + view-level logging, + online checking.
func (r *run) onlineLive(out *results) pathRun {
	const w = "online-live"
	rep := func(rep int) {
		endRep, repSpan := r.tr.begin(w, -1, rep)
		defer endRep()
		for i := range r.mix {
			m := &r.mix[i]
			// A fresh input per repetition (shared by its three passes), so
			// the median is over inputs as well as over time.
			seed := r.seedFor(fmt.Sprintf("%s/%s/%d", w, m.key, rep))
			ops := r.sz.onlineOps
			a := r.progAlone(m, ops, seed)
			settle()
			b := r.logged(m, ops, seed)
			settle()
			c, err := r.online(m, ops, seed, repSpan, rep)
			if rep < 0 {
				continue
			}
			out.op(w, err)
			out.addPart("prog_methods_per_s", m.key, "methods/s", rate(a.methods, a.elapsed))
			out.addPart("logged_methods_per_s", m.key, "methods/s", rate(b.methods, b.elapsed))
			out.addPart("online_methods_per_s", m.key, "methods/s", rate(c.methods, c.elapsed))
			if r.tr != nil {
				out.add("harness.method_ns."+m.key, "ns", perItem(a.elapsed, a.methods)*float64(r.T))
				out.add("vyrd.entries_per_method."+m.key, "count", float64(b.entries)/float64(b.methods))
				out.add("vyrd.probe_ns", "ns", perItem(b.elapsed-a.elapsed, b.entries)*float64(r.T))
				out.add("online-live.producer_ns", "ns", perItem(b.elapsed, b.entries))
				out.add("core.online_drain_ms", "ms", ms(c.elapsed-c.running))
				out.add("wal.blocked_waits", "count", float64(c.stats.BlockedWaits))
				out.add("wal.max_lag_entries", "count", float64(c.stats.MaxVerifierLag))
				out.add("wal.peak_retained_entries", "count", float64(c.stats.PeakRetainedEntries))
			}
		}
	}
	return pathRun{rep: rep}
}

func rate(n int64, d time.Duration) float64 { return float64(n) / d.Seconds() }

// perItem is d spread over n items, in nanoseconds.
func perItem(d time.Duration, n int64) float64 { return float64(d.Nanoseconds()) / float64(n) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
