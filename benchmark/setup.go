package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/harness"
	"repro/internal/remote"
	"repro/vyrd"
)

// recorded is one view-level trace persisted in set-up.
type recorded struct {
	path    string
	entries int64
	returns int64 // completed methods, application and worker threads
}

// witness is a planted-bug log one engine must flag, with the registry
// subject whose spec it is checked against.
type witness struct {
	subject string
	mode    string // remote.Hello.Mode of the engine that must flag it
	entries []vyrd.Entry
}

// fixtures is everything set-up builds and the workloads only read.
type fixtures struct {
	// traces holds, per mix key, several independently recorded traces.
	// The linearizability engine's cost depends on how the OS happened to
	// overlap the harness threads (one recording replays 3x slower than
	// the next), so a subject's replay rate is taken over several recordings.
	traces map[string][]recorded

	// One planted-bug witness per engine, in engine order refinement-view,
	// linearize, ltl.
	witnesses [3]witness

	stream []vyrd.Entry // long fleet session (msarray)
	churn  []vyrd.Entry // short fleet session (msarray)

	srv  *remote.Server
	addr string
}

// fleetWorkers is the checker pool size docker-compose.yml deploys.
const fleetWorkers = 2

// witnessBudget bounds each witness search; the searches are deterministic
// and today end within the first few dozen schedules.
const witnessBudget = 2000

// noSync hides a file's Sync so a set-up recording is buffered writes only;
// durability is record-durable's subject, not set-up's.
type noSync struct{ io.Writer }

func (r *run) setUp() (*fixtures, error) {
	fx := &fixtures{traces: make(map[string][]recorded)}
	for i := range r.mix {
		m := &r.mix[i]
		for k := 0; k < r.sz.replayTraces; k++ {
			label := fmt.Sprintf("%s-%d", m.key, k)
			rec, err := r.record(m, filepath.Join(r.dir, label+".vyrdlog"), r.seedFor("offline-replay/"+label))
			if err != nil {
				return nil, err
			}
			fx.traces[m.key] = append(fx.traces[m.key], rec)
		}
	}

	torn, ok := bench.SubjectByName("Multiset-TornPair")
	if !ok {
		return nil, fmt.Errorf("subject Multiset-TornPair is not registered")
	}
	refined, _, err := bench.RaceWitness(torn, witnessBudget)
	if err != nil {
		return nil, err
	}
	surfaced, _, _, err := bench.SurfacedRaceWitness(torn, witnessBudget)
	if err != nil {
		return nil, err
	}
	ledger, ok := bench.SubjectByName("Ledger-LockPair")
	if !ok {
		return nil, fmt.Errorf("subject Ledger-LockPair is not registered")
	}
	temporal, err := explore.Temporal(bench.BuiltinProps(ledger.Name))
	if err != nil {
		return nil, err
	}
	found, _, err := explore.ExploreWith(ledger.Buggy, bench.ExploreSpec(ledger.Name), witnessBudget, temporal)
	if err != nil {
		return nil, err
	}
	if found == nil {
		return nil, fmt.Errorf("no temporal witness for %s in %d schedules", ledger.Name, witnessBudget)
	}
	fx.witnesses = [3]witness{
		{subject: torn.Name, mode: "view", entries: refined},
		{subject: torn.Name, mode: "linearize", entries: surfaced},
		{subject: ledger.Name, mode: "ltl", entries: found.Run.Entries},
	}

	ms := r.bySub["msarray"]
	fx.stream = r.session(ms, r.sz.streamMethods, "fleet-stream")
	fx.churn = r.session(ms, r.sz.churnMethods, "fleet-churn")

	srv, err := remote.NewServer(remote.ServerOptions{Registry: r.reg, Workers: fleetWorkers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln) // returns when tearDown's Shutdown closes the listener
	fx.srv, fx.addr = srv, ln.Addr().String()
	return fx, nil
}

func (fx *fixtures) tearDown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return fx.srv.Shutdown(ctx)
}

// record runs the subject once at view level with a file sink attached and
// returns the persisted trace.
func (r *run) record(m *mixSubject, path string, seed int64) (recorded, error) {
	f, err := os.Create(path)
	if err != nil {
		return recorded{}, err
	}
	defer f.Close()
	log := vyrd.NewLogWith(vyrd.LevelView, vyrd.LogOptions{})
	if err := log.AttachSink(noSync{f}); err != nil {
		return recorded{}, err
	}
	cfg := r.harnessConfig(r.sz.replayOps, seed, vyrd.LevelView, vyrd.LogOptions{})
	res := harness.RunOnLog(m.target, cfg, log) // closes the log, which flushes the sink
	if err := log.SinkErr(); err != nil {
		return recorded{}, fmt.Errorf("record %s: %w", m.name, err)
	}
	// Flush the recording now, inside set-up's own time: left dirty, the
	// kernel writes it back under the measurements that follow.
	if err := f.Sync(); err != nil {
		return recorded{}, err
	}
	if err := f.Close(); err != nil {
		return recorded{}, err
	}
	return recorded{path: path, entries: res.LogStats.Appends, returns: countReturns(res.Log.Snapshot())}, nil
}

// session generates the in-memory trace one fleet session streams.
func (r *run) session(m *mixSubject, methods int, label string) []vyrd.Entry {
	ops := max(methods/r.T, 1)
	res := harness.Run(m.target, r.harnessConfig(ops, r.seedFor(label), vyrd.LevelView, vyrd.LogOptions{}))
	return res.Log.Snapshot()
}
