package bench

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/linearize"
	"repro/internal/wal"
	"repro/vyrd"
)

// multiEngine adapts the synchronous Multi fan-out to the scheduler's
// Engine: the worker thread drives both checkers inline, slice by slice.
type multiEngine struct {
	m   *core.Multi
	cur wal.Reader
}

func (e *multiEngine) Feed(ev vyrd.Entry) { e.m.FeedSync(ev) }
func (e *multiEngine) Finish() []core.ModuleReport {
	logErr := ""
	if err := e.cur.Err(); err != nil {
		logErr = err.Error()
	}
	return e.m.FinishSync(logErr)
}

// DifferentialScheduled is DifferentialOnline with the checker pipeline
// driven by a fleet scheduler task instead of a dedicated goroutine — the
// parity seam for the bounded-pool deployment: same entries, same Multi
// fan-out, verdicts must be identical to the goroutine baseline. The
// scheduler is shared by the caller so many subjects can contend for the
// same bounded pool, which is the condition the parity claim is about.
func DifferentialScheduled(subject string, t harness.Target, entries []vyrd.Entry, repro string, sched *fleet.Scheduler) (DifferentialVerdict, error) {
	sp, err := LinearizeSpec(subject)
	if err != nil {
		return DifferentialVerdict{}, err
	}
	all := func(vyrd.Entry) bool { return true }
	refOpts := []core.Option{core.WithMode(explore.Mode(t))}
	if explore.Mode(t) == core.ModeView {
		refOpts = append(refOpts, core.WithReplayer(t.NewReplayer()))
	}
	m, err := core.NewMulti(
		core.Module{Name: "refinement", Spec: t.NewSpec(), Filter: all, Opts: refOpts},
		core.Module{Name: "linearize", Filter: all, NewChecker: func() (core.EntryChecker, error) {
			return linearize.NewChecker(sp, linearize.Options{MaxStates: linearizeBudget}), nil
		}},
	)
	if err != nil {
		return DifferentialVerdict{}, err
	}

	lg := wal.NewWithOptions(wal.LevelView, wal.Options{Window: 1 << 12})
	cur := lg.Reader()
	var recv atomic.Int64
	task := sched.Register(subject, cur, &multiEngine{m: m, cur: cur}, recv.Load, nil)
	go func() {
		for _, e := range entries {
			lg.Append(e)
			recv.Store(e.Seq)
			task.Wake()
		}
		lg.Close()
		task.Close(int64(len(entries)))
	}()
	reports := task.Wait()

	d := DifferentialVerdict{Subject: subject, Repro: repro}
	for _, mr := range reports {
		switch mr.Module {
		case "refinement":
			d.Refinement = mr.Report
		case "linearize":
			d.Linearize = mr.Report
		}
	}
	if d.Refinement == nil || d.Linearize == nil {
		return DifferentialVerdict{}, fmt.Errorf("bench: scheduled fan-out lost a module report")
	}
	if d.Linearize.LogErr != "" {
		return DifferentialVerdict{}, fmt.Errorf("bench: linearize gave up on %s: %s", subject, d.Linearize.LogErr)
	}
	return d, nil
}
