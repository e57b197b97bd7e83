package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/harness"
	"repro/internal/wal"
	"repro/vyrd"
)

// durableSyncEvery is the sync-point cadence of the durable recording: one
// marker + flush + fsync per this many entries (the wal default).
const durableSyncEvery = 1024

// syncCounter is a wal.SyncWriter over a file that counts fsyncs.
type syncCounter struct {
	f      *os.File
	fsyncs int64
}

func (s *syncCounter) Write(p []byte) (int, error) { return s.f.Write(p) }
func (s *syncCounter) Sync() error                 { s.fsyncs++; return s.f.Sync() }

// durable is one recording to an fsync'd file followed by its recovery.
type durable struct {
	entries int64
	bytes   int64
	fsyncs  int64
	record  time.Duration // first op -> last byte durable
	recover time.Duration
}

// recordDurable runs the subject at view level behind a bounded window with
// a real file as the sink, fsync'd every durableSyncEvery entries, then
// recovers the file the way a crashed producer's successor would.
func (r *run) recordDurable(m *mixSubject, ops int, seed int64, parent, rep int) (durable, error) {
	path := filepath.Join(r.dir, "durable-"+m.key+".vyrdlog")
	f, err := os.Create(path)
	if err != nil {
		return durable{}, err
	}
	defer os.Remove(path)
	defer f.Close()
	sink := &syncCounter{f: f}
	log := vyrd.NewLogWith(vyrd.LevelView, vyrd.LogOptions{Window: onlineWindow, SyncEvery: durableSyncEvery})
	if err := log.AttachSink(sink); err != nil {
		return durable{}, err
	}
	cfg := r.harnessConfig(ops, seed, vyrd.LevelView, vyrd.LogOptions{})
	start := time.Now()
	endRun, _ := r.tr.begin("harness.RunOnLog+sink", parent, rep)
	res := harness.RunOnLog(m.target, cfg, log) // Close waits for the sink's final sync point
	endRun()
	d := durable{entries: res.LogStats.Appends, record: time.Since(start), fsyncs: sink.fsyncs}
	if err := log.SinkErr(); err != nil {
		return d, fmt.Errorf("durable sink: %w", err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		return d, err
	}
	st, err := f.Stat()
	if err != nil {
		return d, err
	}
	d.bytes = st.Size()
	start = time.Now()
	endRecover, _ := r.tr.begin("wal.RecoverReader", parent, rep)
	entries, report, err := wal.RecoverReader(f)
	endRecover()
	d.recover = time.Since(start)
	if err != nil {
		return d, err
	}
	if !report.Clean() || int64(len(entries)) != d.entries {
		return d, fmt.Errorf("%s: recovered %d of %d entries (%s)", m.name, len(entries), d.entries, report)
	}
	return d, nil
}

// durableSubjects are the two ends of the write path: few writes per
// method, and a large keyed view.
var durableSubjects = []string{"msarray", "blinktree"}

func (r *run) recordDurableWorkload(out *results) pathRun {
	const w = "record-durable"
	rep := func(rep int) {
		endRep, repSpan := r.tr.begin(w, -1, rep)
		defer endRep()
		for _, key := range durableSubjects {
			m := r.bySub[key]
			settle()
			d, err := r.recordDurable(m, r.sz.durableOps, r.seedFor(fmt.Sprintf("%s/%s/%d", w, key, rep)), repSpan, rep)
			if rep < 0 {
				continue
			}
			out.op(w, err)
			if err != nil {
				continue
			}
			out.addPart("record_entries_per_s", key, "entries/s", rate(d.entries, d.record))
			out.addPart("recover_mb_per_s", key, "MB/s", float64(d.bytes)/1e6/d.recover.Seconds())
			if r.tr != nil {
				out.add("wal.fsyncs", "count", float64(d.fsyncs))
				out.add("wal.recover_ns", "ns", perItem(d.recover, d.entries))
				out.add("event.bytes_per_entry", "B", float64(d.bytes)/float64(d.entries))
			}
		}
	}
	return pathRun{rep: rep}
}
