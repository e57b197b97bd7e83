package bench

import (
	"bytes"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/harness"
	"repro/internal/msvector"
	"repro/internal/wal"
	"repro/vyrd"
)

// DurabilityConfig parameterizes the durability measurement: a seeded
// workload recorded through the persisting encoder sink (checksummed
// frames, sync markers), then scanned back through the recovery path.
type DurabilityConfig struct {
	Threads      int
	OpsPerThread int
	// SyncEvery is the sync-marker/fsync cadence in entries.
	SyncEvery int
	Seed      int64
}

// DefaultDurabilityConfig sizes the run long enough that the encoder sink,
// not the harness, dominates.
func DefaultDurabilityConfig() DurabilityConfig {
	return DurabilityConfig{Threads: 4, OpsPerThread: 4000, SyncEvery: 1024, Seed: 1}
}

// DurabilityRow is the recording's outcome, plus the recovery scan rate
// over the stream it produced (the torn-tail scanner reads every frame, so
// its throughput is the recovery-time bound for a crashed log of this
// shape).
type DurabilityRow struct {
	Methods       int64
	Entries       int64
	Bytes         int64
	Elapsed       time.Duration
	EntriesPerSec float64
	BytesPerEntry float64
	RecoverMBps   float64
}

// Durability records the workload and scans the stream back through the
// recovery path.
func Durability(cfg DurabilityConfig) DurabilityRow {
	hcfg := baseConfig(cfg.Threads, cfg.OpsPerThread, cfg.Seed, vyrd.LevelView)
	hcfg.LogOptions = vyrd.LogOptions{SyncEvery: cfg.SyncEvery}
	log := vyrd.NewLogWith(hcfg.Level, hcfg.LogOptions)
	var buf bytes.Buffer
	if err := log.AttachSink(&buf); err != nil {
		panic("bench: " + err.Error())
	}
	res := harness.RunOnLog(msvector.Target(msvector.BugNone), hcfg, log)
	if err := log.SinkErr(); err != nil {
		panic("bench: sink: " + err.Error())
	}
	entries := log.Stats().Appends
	row := DurabilityRow{
		Methods: res.Methods,
		Entries: entries,
		Bytes:   int64(buf.Len()),
		Elapsed: res.Elapsed,
	}
	if s := res.Elapsed.Seconds(); s > 0 {
		row.EntriesPerSec = float64(entries) / s
	}
	if entries > 0 {
		row.BytesPerEntry = float64(buf.Len()) / float64(entries)
	}
	start := time.Now()
	recovered, rep, err := wal.RecoverReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		panic("bench: recover: " + err.Error())
	}
	if !rep.Clean() || int64(len(recovered)) != entries {
		panic(fmt.Sprintf("bench: recovery of an intact stream kept %d of %d entries",
			len(recovered), entries))
	}
	if s := time.Since(start).Seconds(); s > 0 {
		row.RecoverMBps = float64(buf.Len()) / (1 << 20) / s
	}
	return row
}

// WriteDurability renders the durability row.
func WriteDurability(w io.Writer, cfg DurabilityConfig, r DurabilityRow) {
	fmt.Fprintf(w, "Durability: persisting sink, sync cadence %d entries\n", cfg.SyncEvery)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Methods\tEntries\tBytes\tElapsed\tEntries/s\tBytes/entry\tRecover MB/s")
	fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%.0f\t%.2f\t%.1f\n",
		r.Methods, r.Entries, r.Bytes, r.Elapsed.Round(time.Millisecond),
		r.EntriesPerSec, r.BytesPerEntry, r.RecoverMBps)
	tw.Flush()
}
