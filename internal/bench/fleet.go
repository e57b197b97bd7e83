package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fleet"
	"repro/internal/fleet/load"
	"repro/internal/harness"
	"repro/internal/linearize"
	"repro/internal/remote"
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

// FleetConfig sizes one fleet capacity run: how many concurrent sessions
// to hold open against an in-process vyrdd whose checkers multiplex over
// a bounded worker pool.
type FleetConfig struct {
	// Sessions is the concurrent-session target (the max-sessions/box
	// claim is "this many were simultaneously open").
	Sessions int
	// Workers bounds the checker pool (0 = 2×GOMAXPROCS, the fleet
	// deployment default).
	Workers int
	// Subject is the registry subject each session streams; Seed picks
	// the recorded run.
	Subject string
	Seed    int64
}

// DefaultFleetConfig targets the ISSUE acceptance bar: 1000 concurrent
// sessions on one box with a pool no wider than 2×GOMAXPROCS.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{
		Sessions: 1000,
		Workers:  2 * runtime.GOMAXPROCS(0),
		Subject:  "Multiset-Array",
		Seed:     1,
	}
}

// FleetRow is one measured fleet capacity point.
type FleetRow struct {
	Subject string
	// Sessions is the configured target; Opened is how many were
	// verifiably open at once (each past its handshake, none finished);
	// PeakActive is the server's own sessions_active gauge at that moment.
	Sessions   int
	Opened     int
	PeakActive int
	Workers    int
	// EntriesPerSession is the recorded log length; Entries the total
	// streamed in the measured phase across all sessions.
	EntriesPerSession int
	Entries           int64
	EntriesPerSec     float64
	ElapsedSec        float64
	// VerdictsOk counts sessions whose verdict passed (must equal
	// Sessions on a clean subject); Failed counts errored sessions.
	VerdictsOk int
	Failed     int
	// SchedSlices and PeakUtilization describe the pool: cooperative
	// slices executed over the whole run, and the busy fraction sampled
	// at peak concurrency.
	SchedSlices     int64
	PeakUtilization float64
}

// FleetTable runs the load generator against an in-process scheduler-mode
// server over a loopback listener and returns the capacity row — the
// numbers behind the "max-sessions/box, entries/sec" claim in BENCH_PR8.
func FleetTable(cfg FleetConfig) ([]FleetRow, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = DefaultFleetConfig().Sessions
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.Subject == "" {
		cfg.Subject = DefaultFleetConfig().Subject
	}
	s, ok := SubjectByName(cfg.Subject)
	if !ok {
		return nil, fmt.Errorf("bench: unknown fleet subject %q", cfg.Subject)
	}
	entries := CleanRun(s, cfg.Seed)

	srv, err := remote.NewServer(remote.ServerOptions{
		Registry: Registry(),
		Workers:  cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	peakActive := 0
	peakUtil := 0.0
	stopSample := make(chan struct{})
	var sampleWG sync.WaitGroup
	st, err := load.Run(load.Config{
		Addr:     ln.Addr().String(),
		Sessions: cfg.Sessions,
		Spec:     s.Name,
		Tenant:   "bench",
		Entries:  entries,
		AtPeak: func() {
			peakActive = srv.Metrics().SessionsActive
			// The barrier itself is idle by construction; the pool's peak
			// busy fraction is sampled across the measured phase instead.
			sampleWG.Add(1)
			go func() {
				defer sampleWG.Done()
				for {
					select {
					case <-stopSample:
						return
					default:
					}
					if m := srv.Metrics(); m.Sched != nil {
						if u := m.Sched.Utilization(); u > peakUtil {
							peakUtil = u
						}
					}
					time.Sleep(2 * time.Millisecond)
				}
			}()
		},
	})
	close(stopSample)
	sampleWG.Wait()
	if err != nil {
		return nil, err
	}

	row := FleetRow{
		Subject:           s.Name,
		Sessions:          cfg.Sessions,
		Opened:            st.Opened,
		PeakActive:        peakActive,
		Workers:           cfg.Workers,
		EntriesPerSession: len(entries),
		Entries:           st.Entries,
		EntriesPerSec:     st.EntriesPerSec,
		ElapsedSec:        float64(st.ElapsedNS) / 1e9,
		VerdictsOk:        st.VerdictsOk,
		Failed:            st.Failed,
		PeakUtilization:   peakUtil,
	}
	if m := srv.Metrics(); m.Sched != nil {
		row.SchedSlices = m.Sched.Slices
	}
	return []FleetRow{row}, nil
}

// WriteFleetTable renders fleet capacity rows for terminals.
func WriteFleetTable(w io.Writer, rows []FleetRow) {
	fmt.Fprintf(w, "Fleet capacity: concurrent sessions multiplexed over a bounded checker pool\n")
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "subject\tsessions\topen@peak\tsrv-active\tworkers\tutil@peak\tentries\tentries/sec\telapsed\tverdicts-ok\tfailed\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.2f\t%d\t%.0f\t%.2fs\t%d\t%d\n",
			r.Subject, r.Sessions, r.Opened, r.PeakActive, r.Workers,
			r.PeakUtilization, r.Entries, r.EntriesPerSec, r.ElapsedSec,
			r.VerdictsOk, r.Failed)
	}
	tw.Flush()
}
