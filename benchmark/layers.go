package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/linearize"
	"repro/internal/remote"
	"repro/internal/view"
	"repro/internal/wal"
	"repro/vyrd"
)

// layers runs the isolated-stage measurements of a traced run: each stage
// of the pipeline alone, over the same recorded traces the workloads use,
// so its cost per entry can be set beside the end-to-end figures.
func (r *run) layers(out *results) error {
	ms := r.fix.traces["msarray"][0]
	// One in-memory msarray recording long enough that the sampled stages
	// (reader lag: one entry in 64, p99 needs a thousand samples) resolve.
	entries := r.session(r.bySub["msarray"], layerMethods, "layers")
	stages := []func() error{
		func() error { r.walLayers(out, entries); return nil },
		func() error { return r.sinkLayers(out, entries) },
		func() error { return r.codecLayers(out, entries, ms) },
		func() error { return r.readerLag(out, entries) },
		func() error { return r.feedIO(out) },
		func() error { viewUpdate(out); return nil },
		func() error { return r.linearizeLong(out) },
		func() error { return r.remoteLayers(out) },
		func() error { r.fleetSched(out, entries); return nil },
		func() error { r.schedLayers(out); return nil },
	}
	for _, stage := range stages {
		if err := stage(); err != nil {
			return err
		}
	}
	return nil
}

func readTrace(path string) ([]vyrd.Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return wal.ReadFile(f)
}

// layerMethods sizes the recording the wal, sink, codec and lag stages
// share: about 80 k entries.
const layerMethods = 24000

// layerEntries is how many appends each wal stage times: enough that the
// stage lasts tens of milliseconds, cycled from the recorded entries.
const layerEntries = 1 << 19

// walLayers prices the append path alone (one and T producers, truncating
// log, no reader) and the append + cursor-drain pipeline behind a window.
func (r *run) walLayers(out *results, entries []vyrd.Entry) {
	appendN := func(l *wal.Log, n int) {
		for i := 0; i < n; i++ {
			l.Append(entries[i%len(entries)])
		}
	}
	settle()
	l := wal.NewWithOptions(wal.LevelView, wal.Options{Truncate: true})
	start := time.Now()
	appendN(l, layerEntries)
	out.set("wal.append_ns_1p", "ns", perItem(time.Since(start), layerEntries))
	l.Close()

	settle()
	l = wal.NewWithOptions(wal.LevelView, wal.Options{Truncate: true})
	var wg sync.WaitGroup
	start = time.Now()
	for p := 0; p < r.T; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			appendN(l, layerEntries/r.T)
		}()
	}
	wg.Wait()
	out.set("wal.append_ns_np", "ns", perItem(time.Since(start), int64(layerEntries/r.T*r.T)))
	l.Close()

	settle()
	l = wal.NewWithOptions(wal.LevelView, wal.Options{Window: onlineWindow})
	cur := l.Reader()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, ok := cur.Next(); !ok {
				return
			}
		}
	}()
	start = time.Now()
	appendN(l, layerEntries)
	l.Close()
	wg.Wait()
	out.set("wal.pipeline_ns", "ns", perItem(time.Since(start), layerEntries))
}

// sinkLayers prices persistence: the async encoder sink into io.Discard
// (encode + buffer, no device) and into an fsync'd temp file.
func (r *run) sinkLayers(out *results, entries []vyrd.Entry) error {
	through := func(w io.Writer) (time.Duration, error) {
		settle()
		l := wal.NewWithOptions(wal.LevelView, wal.Options{Window: onlineWindow, SyncEvery: durableSyncEvery})
		if err := l.AttachSink(w); err != nil {
			return 0, err
		}
		start := time.Now()
		for i := range entries {
			l.Append(entries[i])
		}
		l.Close() // waits for the sink's final flush
		return time.Since(start), l.SinkErr()
	}
	d, err := through(io.Discard)
	if err != nil {
		return err
	}
	out.set("wal.sink_buffered_ns", "ns", perItem(d, int64(len(entries))))

	f, err := os.Create(filepath.Join(r.dir, "sink.vyrdlog"))
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	d, err = through(f)
	if err != nil {
		return err
	}
	out.set("wal.sink_fsync_ns", "ns", perItem(d, int64(len(entries))))
	return nil
}

// codecLayers prices the binary codec alone: encode into io.Discard, and
// the parallel decoder over the recorded file.
func (r *run) codecLayers(out *results, entries []vyrd.Entry, rec recorded) error {
	settle()
	enc := event.NewEncoder(io.Discard)
	start := time.Now()
	for i := range entries {
		if err := enc.Encode(entries[i]); err != nil {
			return err
		}
	}
	out.set("event.encode_ns", "ns", perItem(time.Since(start), int64(len(entries))))

	settle()
	f, err := os.Open(rec.path)
	if err != nil {
		return err
	}
	defer f.Close()
	start = time.Now()
	decoded, err := wal.ReadFileParallel(f, r.T)
	if err != nil {
		return err
	}
	if int64(len(decoded)) != rec.entries {
		return fmt.Errorf("parallel decode returned %d of %d entries", len(decoded), rec.entries)
	}
	out.set("event.decode_parallel_ns", "ns", perItem(time.Since(start), rec.entries))
	return nil
}

// lagSampleEvery is the sampling stride of the reader-lag probe.
const lagSampleEvery = 64

// lagReader wraps the checker's reader: every lagSampleEvery-th entry was
// stamped by the producer when appended, and is stamped again here when
// the checker's Next returns it. The difference is the verifier's lag in
// time, the roadmap's operating question for online mode.
type lagReader struct {
	wal.Reader
	stamps []atomic.Int64 // append time of seq (i+1)*lagSampleEvery, ns since t0
	t0     time.Time
	lagsUS []float64
}

func (lr *lagReader) Next() (event.Entry, bool) {
	e, ok := lr.Reader.Next()
	if ok && e.Seq%lagSampleEvery == 0 {
		if i := int(e.Seq/lagSampleEvery) - 1; i < len(lr.stamps) {
			if at := lr.stamps[i].Load(); at > 0 {
				lr.lagsUS = append(lr.lagsUS, float64(time.Since(lr.t0).Nanoseconds()-at)/1e3)
			}
		}
	}
	return e, ok
}

// readerLag feeds a recorded trace through a windowed log into the real
// view checker reading via lagReader.
func (r *run) readerLag(out *results, entries []vyrd.Entry) error {
	m := r.bySub["msarray"]
	c, err := vyrd.NewChecker(m.factory.NewSpec(), vyrd.WithMode(vyrd.ModeView), vyrd.WithReplayer(m.factory.NewReplayer()))
	if err != nil {
		return err
	}
	settle()
	l := wal.NewWithOptions(wal.LevelView, wal.Options{Window: onlineWindow})
	lr := &lagReader{Reader: l.Reader(), stamps: make([]atomic.Int64, len(entries)/lagSampleEvery), t0: time.Now()}
	done := make(chan *vyrd.Report, 1)
	go func() { done <- c.Run(lr) }()
	for i := range entries {
		// Single producer on a fresh log: entry i gets sequence i+1. Stamp
		// before appending so the reader never sees an unstamped sample.
		if seq := i + 1; seq%lagSampleEvery == 0 {
			lr.stamps[seq/lagSampleEvery-1].Store(time.Since(lr.t0).Nanoseconds())
		}
		l.Append(entries[i])
	}
	l.Close()
	if rep := <-done; !rep.Ok() {
		return fmt.Errorf("reader-lag pipeline: %s", rep)
	}
	out.set("wal.reader_lag_us_p50", "us", median(lr.lagsUS))
	if p99, err := percentile(lr.lagsUS, 99); err == nil {
		out.set("wal.reader_lag_us_p99", "us", p99)
	}
	return nil
}

// feedIO prices I/O refinement's Feed over each subject's first recording.
func (r *run) feedIO(out *results) error {
	var per []float64
	for i := range r.mix {
		m := &r.mix[i]
		entries, err := readTrace(r.fix.traces[m.key][0].path)
		if err != nil {
			return err
		}
		c, err := vyrd.NewChecker(m.factory.NewSpec(), vyrd.WithMode(vyrd.ModeIO))
		if err != nil {
			return err
		}
		settle()
		start := time.Now()
		for j := range entries {
			c.Feed(entries[j])
		}
		d := time.Since(start)
		if rep := c.Finish(); !rep.Ok() {
			return fmt.Errorf("%s io refinement: %s", m.name, rep)
		}
		per = append(per, perItem(d, int64(len(entries))))
	}
	out.set("core.feed_io_ns", "ns", geomean(per))
	return nil
}

// viewUpdate prices the view digest table alone: set, delete and read the
// fingerprint over a 1 k-key working set.
func viewUpdate(out *results) {
	const keys, rounds = 1 << 10, 1 << 20
	sp := view.NewSpace("benchmark.view")
	t := view.NewTable()
	rng := rand.New(rand.NewSource(1))
	var sink uint64
	settle()
	start := time.Now()
	for i := 0; i < rounds; i++ {
		k := int64(rng.Intn(keys))
		if i%4 == 3 {
			t.DeleteInt(sp, k)
		} else {
			t.SetInt(sp, k, int64(i))
		}
		sink ^= t.Hash()
	}
	out.set("view.update_ns", "ns", perItem(time.Since(start), rounds))
	runtime.KeepAlive(sink)
}

// linearizeLong feeds the linearizability engine one recording of the
// write-heavy subject ten times the length of a background replay trace: its
// cost per entry grows with trace length, which one fixed size cannot show.
func (r *run) linearizeLong(out *results) error {
	m := r.bySub["cache"]
	cfg := r.harnessConfig(10*min(r.sz.replayOps, background().replayOps), r.seedFor("linearize-long"), vyrd.LevelView, vyrd.LogOptions{})
	entries := harness.Run(m.target, cfg).Log.Snapshot()
	c := m.factory.NewLinearizer()
	settle()
	start := time.Now()
	for i := range entries {
		c.Feed(entries[i])
	}
	rep := c.Finish() // the engine defers part of its search to the end of the log
	d := time.Since(start)
	if !rep.Ok() {
		return fmt.Errorf("%s linearize (long): %s", m.name, rep)
	}
	out.set("linearize.feed_ns_long", "ns", perItem(d, int64(len(entries))))
	return nil
}

// countingConn counts the bytes a client writes to the wire.
type countingConn struct {
	net.Conn
	written *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// remoteLayers prices session open (NewClient until the server has assigned
// a session token) and the wire bytes one streamed entry costs.
func (r *run) remoteLayers(out *results) error {
	var written atomic.Int64
	dial := func(addr string) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, remote.DefaultDialTimeout)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, written: &written}, nil
	}
	clean := &sessionSpec{subject: r.bySub["msarray"].name, entries: r.fix.stream, returns: countReturns(r.fix.stream)}
	if res := r.streamSession(clean, dial, -1, 0); res.err != nil {
		return res.err
	}
	out.set("remote.wire_bytes_per_entry", "B", float64(written.Load())/float64(len(clean.entries)))

	var opens []float64
	for i := 0; i < r.sz.openSessions; i++ {
		start := time.Now()
		cl, err := remote.NewClient(remote.ClientOptions{Addr: r.fix.addr, Hello: remote.Hello{Spec: clean.subject}})
		if err != nil {
			return err
		}
		// The handshake happens on the first ship; one entry and the
		// flusher's next tick trigger it.
		if err := cl.WriteEntry(r.fix.churn[0]); err != nil {
			cl.Close()
			return err
		}
		for cl.Session() == "" && cl.Err() == nil && time.Since(start) < remote.DefaultDialTimeout {
			runtime.Gosched()
		}
		opens = append(opens, ms(time.Since(start)))
		// Finish the session properly: one abandoned mid-stream would sit
		// on the server until tear-down's drain deadline.
		err = cl.Flush()
		cl.Close()
		if err != nil {
			return err
		}
	}
	out.set("remote.open_ms", "ms", median(opens))
	return nil
}

// noopEngine discards entries: a fleet scheduler driving it costs exactly
// the scheduler and the session log, with the checker removed.
type noopEngine struct{}

func (noopEngine) Feed(event.Entry)            {}
func (noopEngine) Finish() []core.ModuleReport { return nil }

// fleetSched ingests a recorded trace into a session-shaped log the way the
// server's wire loop does (append, wake) with a no-op engine behind the
// scheduler.
func (r *run) fleetSched(out *results, entries []vyrd.Entry) {
	settle()
	s := fleet.NewScheduler(fleetWorkers, 0)
	defer s.Stop()
	l := wal.NewWithOptions(wal.LevelView, wal.Options{Window: remote.DefaultWindow})
	var appended atomic.Int64
	task := s.Register("", l.Reader(), noopEngine{}, appended.Load, nil)
	start := time.Now()
	for i := range entries {
		appended.Store(l.Append(entries[i]))
		task.Wake()
	}
	l.Close()
	task.Close(appended.Load())
	task.Wait()
	out.set("fleet.sched_ns", "ns", perItem(time.Since(start), int64(len(entries))))
}

// segcacheHitRate reads the linearizability engine's process-wide memo
// counters; settle() zeroes them before each pass.
func segcacheHitRate() (float64, bool) {
	st := linearize.SegmentCacheStats()
	if st.Lookups == 0 {
		return 0, false
	}
	return 100 * float64(st.Hits) / float64(st.Lookups), true
}
