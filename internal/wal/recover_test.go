package wal

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/faultfs"
)

// writeLogThrough runs a small append workload with the encoder sink
// attached to w and returns the sequence numbers appended.
func writeLogThrough(t *testing.T, w interface{ Write([]byte) (int, error) }, opts Options, n int) {
	t.Helper()
	l := NewWithOptions(LevelView, opts)
	if err := l.AttachSink(w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		l.Append(event.Entry{Tid: 1, Kind: event.KindCall, Method: "Insert", Args: []event.Value{i}})
	}
	l.Close()
}

// TestRecoverCrashedFile is the end-to-end crash loop on one file: a log
// written through a crash-at-byte faultfs file loses its tail silently;
// Recover truncates the torn frame away, the recovered entries are a
// prefix of the full run, and the repaired file satisfies the ordinary
// readers.
func TestRecoverCrashedFile(t *testing.T) {
	// Reference run: same entries, no faults.
	var ref bytes.Buffer
	writeLogThrough(t, &ref, Options{SyncEvery: 8}, 100)

	for _, crashAt := range []int64{9, 57, 200, 1000, int64(ref.Len()) - 1} {
		mem := faultfs.NewMemFS()
		fs := faultfs.New(mem, faultfs.Config{CrashAtByte: crashAt})
		f, err := fs.Create("crash.log")
		if err != nil {
			t.Fatal(err)
		}
		writeLogThrough(t, f, Options{SyncEvery: 8}, 100)
		f.Close()

		entries, rep, err := RecoverPath(mem, "crash.log")
		if err != nil {
			t.Fatalf("crash@%d: recover: %v", crashAt, err)
		}
		// A crash offset can land exactly on a frame boundary, in which
		// case the file is already valid; otherwise the torn frame must
		// have been cut away.
		if rep.Truncated == rep.Clean() {
			t.Fatalf("crash@%d: Truncated=%v but Clean=%v: %s", crashAt, rep.Truncated, rep.Clean(), rep)
		}
		// The recovered entries are exactly the first LastSeq of the run.
		if int64(len(entries)) != rep.LastSeq {
			t.Fatalf("crash@%d: %d entries but LastSeq %d", crashAt, len(entries), rep.LastSeq)
		}
		for i, e := range entries {
			if e.Seq != int64(i+1) {
				t.Fatalf("crash@%d: entry %d has seq %d", crashAt, i, e.Seq)
			}
		}
		// The repaired file is byte-for-byte a prefix of the reference
		// stream (entry-count sync cadence makes the bytes deterministic)
		// and the ordinary readers accept it.
		repaired := mem.Bytes("crash.log")
		if int64(len(repaired)) != rep.BytesKept {
			t.Fatalf("crash@%d: file is %d bytes, report says %d", crashAt, len(repaired), rep.BytesKept)
		}
		if !bytes.HasPrefix(ref.Bytes(), repaired) {
			t.Fatalf("crash@%d: repaired file is not a prefix of the reference stream", crashAt)
		}
		again, err := ReadFile(bytes.NewReader(repaired))
		if err != nil {
			t.Fatalf("crash@%d: ReadFile after recovery: %v", crashAt, err)
		}
		if len(again) != len(entries) {
			t.Fatalf("crash@%d: ReadFile saw %d entries, recovery %d", crashAt, len(again), len(entries))
		}
		par, err := ReadFileParallel(bytes.NewReader(repaired), 4)
		if err != nil || len(par) != len(entries) {
			t.Fatalf("crash@%d: parallel read after recovery: %d entries, %v", crashAt, len(par), err)
		}
		// Recovering a recovered file is a no-op.
		_, rep2, err := RecoverPath(mem, "crash.log")
		if err != nil || !rep2.Clean() {
			t.Fatalf("crash@%d: second recovery not clean: %s, %v", crashAt, rep2, err)
		}
	}
}

// TestRecoverCleanAndEmpty pins the no-op paths.
func TestRecoverCleanAndEmpty(t *testing.T) {
	mem := faultfs.NewMemFS()
	f, _ := mem.Create("clean.log")
	writeLogThrough(t, f, Options{SyncEvery: 4}, 10)
	entries, rep, err := RecoverPath(mem, "clean.log")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Truncated || len(entries) != 10 || rep.SyncMarkers == 0 {
		t.Fatalf("clean file: %s (%d entries)", rep, len(entries))
	}

	mem.Create("empty.log")
	entries, rep, err = RecoverPath(mem, "empty.log")
	if err != nil || !rep.Clean() || len(entries) != 0 {
		t.Fatalf("empty file: %s, %d entries, %v", rep, len(entries), err)
	}
}

// TestRecoverRefusesGob: a version-1 artifact (the retired gob encoding,
// which no reader decodes any more) must not be destroyed by pointing
// recovery at it.
func TestRecoverRefusesGob(t *testing.T) {
	mem := faultfs.NewMemFS()
	f, _ := mem.Create("old.log")
	f.Write([]byte("VYRDLOG\x01a version-1 body is opaque to the frame scanner"))
	before := mem.Bytes("old.log")
	_, _, err := RecoverPath(mem, "old.log")
	if !errors.Is(err, event.ErrFormatMismatch) {
		t.Fatalf("gob recover error: %v", err)
	}
	if !bytes.Equal(before, mem.Bytes("old.log")) {
		t.Fatal("recovery modified a gob artifact it refused")
	}
}

// TestRecoverNonLogTruncatesToEmpty: junk that was never a log becomes an
// empty (valid) stream, per the documented contract.
func TestRecoverNonLogTruncatesToEmpty(t *testing.T) {
	mem := faultfs.NewMemFS()
	f, _ := mem.Create("junk")
	f.Write([]byte("definitely not a VYRDLOG"))
	entries, rep, err := RecoverPath(mem, "junk")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || rep.BytesKept != 0 || !rep.Truncated {
		t.Fatalf("junk file: %s, %d entries", rep, len(entries))
	}
	if len(mem.Bytes("junk")) != 0 {
		t.Fatal("junk file not truncated to empty")
	}
}

// TestSinkErrSurfacesMidRun is the regression test for the silent-absorb
// bug: a write error injected mid-run used to hide in the bufio buffer
// until Close. With sync points the sink flushes on cadence, so SinkErr
// turns non-nil while the run is still appending.
func TestSinkErrSurfacesMidRun(t *testing.T) {
	mem := faultfs.NewMemFS()
	fs := faultfs.New(mem, faultfs.Config{FailWriteAt: 1})
	f, err := fs.Create("broken.log")
	if err != nil {
		t.Fatal(err)
	}
	l := NewWithOptions(LevelView, Options{SyncEvery: 4})
	if err := l.AttachSink(f); err != nil {
		t.Fatal(err)
	}
	// Trip the first sync point, then keep the run alive while polling:
	// the error must surface before Close.
	for i := 0; i < 8; i++ {
		l.Append(event.Entry{Tid: 1, Kind: event.KindCall, Method: "M"})
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.SinkErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("SinkErr still nil mid-run; error was absorbed until close")
		}
		time.Sleep(time.Millisecond)
		l.Append(event.Entry{Tid: 1, Kind: event.KindCall, Method: "M"})
	}
	if !errors.Is(l.SinkErr(), faultfs.ErrInjectedWrite) {
		t.Fatalf("SinkErr = %v, want the injected write error", l.SinkErr())
	}
	l.Close()
}

// TestFailStopAppendPanics: with FailStop set, the producer is stopped at
// the next Append after the sink latches, instead of racing ahead of a log
// that cannot be persisted.
func TestFailStopAppendPanics(t *testing.T) {
	fs := faultfs.New(faultfs.NewMemFS(), faultfs.Config{FailWriteAt: 1})
	f, err := fs.Create("broken.log")
	if err != nil {
		t.Fatal(err)
	}
	l := NewWithOptions(LevelView, Options{SyncEvery: 2, FailStop: true})
	if err := l.AttachSink(f); err != nil {
		t.Fatal(err)
	}
	panicked := make(chan any, 1)
	append1 := func() (p any) {
		defer func() { p = recover() }()
		l.Append(event.Entry{Tid: 1, Kind: event.KindCall, Method: "M"})
		return nil
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if p := append1(); p != nil {
			panicked <- p
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Append never observed the latched sink error under FailStop")
		}
		time.Sleep(time.Millisecond)
	}
	<-panicked
	if !errors.Is(l.SinkErr(), faultfs.ErrInjectedWrite) {
		t.Fatalf("SinkErr = %v", l.SinkErr())
	}
}
