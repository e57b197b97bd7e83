package wal

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
)

// ctrEntry is a write entry carrying a counter value, used by the ordering
// tests to relate log order to the order a shared lock was acquired in.
func ctrEntry(tid int32, n int) event.Entry {
	return event.Entry{Tid: tid, Kind: event.KindWrite, Method: "ctr", Args: []event.Value{n}}
}

// TestConcurrentAppendMatchesLockOrder is the core soundness property of the
// lock-free append path: entries appended while holding a shared lock appear
// in the log in exactly the order the lock was acquired. Producers increment
// a counter and append its value under one mutex (the way instrumented code
// logs an action while holding the locks that make it visible); a concurrent
// cursor — running under window backpressure and truncation — must observe
// dense sequence numbers 1..N carrying counter values 1..N.
func TestConcurrentAppendMatchesLockOrder(t *testing.T) {
	l := NewWithOptions(LevelView, Options{SegmentSize: 64, Window: 256})
	const producers = 8
	const perP = 2000
	const total = producers * perP

	done := make(chan error, 1)
	cur := l.Cursor()
	go func() {
		var prevSeq int64
		prevCtr := 0
		for {
			e, ok := cur.Next()
			if !ok {
				if prevSeq != total {
					done <- fmt.Errorf("cursor ended after %d entries, want %d", prevSeq, total)
					return
				}
				done <- nil
				return
			}
			if e.Seq != prevSeq+1 {
				done <- fmt.Errorf("sequence hole: %d after %d", e.Seq, prevSeq)
				return
			}
			ctr := event.MustInt(e.Args[0])
			if ctr != prevCtr+1 {
				done <- fmt.Errorf("entry #%d carries counter %d after %d: log order diverged from lock order", e.Seq, ctr, prevCtr)
				return
			}
			prevSeq, prevCtr = e.Seq, ctr
		}
	}()

	var mu sync.Mutex
	ctr := 0
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		tid := l.NewTid()
		go func() {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				mu.Lock()
				ctr++
				l.Append(ctrEntry(tid, ctr))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	l.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Appends; got != total {
		t.Fatalf("stats report %d appends, want %d", got, total)
	}
}

// TestTruncationBoundsRetainedMemory is the bounded-memory acceptance check:
// a long windowed run retains O(Window) entries, not O(execution). The peak
// can exceed Window by at most two segments (the partially consumed head and
// the partially filled tail).
func TestTruncationBoundsRetainedMemory(t *testing.T) {
	const (
		segSize = 64
		window  = 512
		total   = 50_000
	)
	l := NewWithOptions(LevelView, Options{SegmentSize: segSize, Window: window})
	cur := l.Cursor()
	done := make(chan int64, 1)
	go func() {
		var n int64
		for {
			if _, ok := cur.Next(); !ok {
				done <- n
				return
			}
			n++
		}
	}()
	tid := l.NewTid()
	for i := 1; i <= total; i++ {
		l.Append(ctrEntry(tid, i))
	}
	l.Close()
	if n := <-done; n != total {
		t.Fatalf("cursor consumed %d entries, want %d", n, total)
	}

	st := l.Stats()
	if bound := int64(window + 2*segSize); st.PeakRetainedEntries > bound {
		t.Fatalf("peak retained %d entries exceeds window bound %d (stats: %s)", st.PeakRetainedEntries, bound, st)
	}
	// With total >> window, truncation must have released most of the log.
	if st.TruncatedSegments < int64(total/segSize)/2 {
		t.Fatalf("expected substantial truncation, got %s", st)
	}
	if st.RetainedEntries > int64(window+2*segSize) {
		t.Fatalf("final retention %d exceeds bound (stats: %s)", st.RetainedEntries, st)
	}
}

// TestSnapshotOfTruncatedLogReturnsRetainedSuffix: after truncation released
// a prefix, Snapshot starts at the oldest retained entry and is contiguous.
func TestSnapshotOfTruncatedLogReturnsRetainedSuffix(t *testing.T) {
	const segSize = 32
	l := NewWithOptions(LevelView, Options{SegmentSize: segSize, Truncate: true})
	cur := l.Cursor()
	tid := l.NewTid()
	const total = 10 * segSize
	for i := 1; i <= total; i++ {
		l.Append(ctrEntry(tid, i))
	}
	// Consume most of the log so truncation can release full segments.
	for i := 0; i < total-segSize/2; i++ {
		if _, ok := cur.Next(); !ok {
			t.Fatalf("cursor ended early at %d", i)
		}
	}
	snap := l.Snapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	if snap[0].Seq == 1 {
		t.Fatalf("snapshot still starts at seq 1; truncation released nothing (stats: %s)", l.Stats())
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("snapshot not contiguous: seq %d after %d", snap[i].Seq, snap[i-1].Seq)
		}
	}
	if last := snap[len(snap)-1].Seq; last != total {
		t.Fatalf("snapshot ends at seq %d, want %d", last, total)
	}
	l.Close()
}

// flakyWriter fails every write once failAfter bytes have been accepted, and
// can also be flagged closed, after which every write fails. Short writes
// (n < len(p), err != nil) exercise the bufio error path.
type flakyWriter struct {
	mu        sync.Mutex
	accepted  int
	failAfter int
	closed    bool
}

func (w *flakyWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errors.New("flaky: write after close")
	}
	if w.accepted+len(p) > w.failAfter {
		n := w.failAfter - w.accepted
		if n < 0 {
			n = 0
		}
		w.accepted += n
		return n, errors.New("flaky: disk full")
	}
	w.accepted += len(p)
	return len(p), nil
}

func (w *flakyWriter) Close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
}

// TestSinkShortWriteSurfacesError: a sink writer that starts short-writing
// mid-stream must surface the first error through SinkErr after Close, and
// the log itself must keep accepting appends (persistence failure does not
// wedge the execution).
func TestSinkShortWriteSurfacesError(t *testing.T) {
	l := NewWithOptions(LevelView, Options{SegmentSize: 16})
	w := &flakyWriter{failAfter: 200}
	if err := l.AttachSink(w); err != nil {
		t.Fatal(err)
	}
	tid := l.NewTid()
	for i := 1; i <= 500; i++ {
		l.Append(ctrEntry(tid, i))
	}
	l.Close()
	err := l.SinkErr()
	if err == nil {
		t.Fatal("sink error not surfaced")
	}
	if got := err.Error(); got == "" || !strings.Contains(got, "disk full") {
		t.Fatalf("unexpected sink error: %v", err)
	}
	if l.Len() != 500 {
		t.Fatalf("appends lost after sink failure: %d", l.Len())
	}
}

// TestSinkWriteAfterCloseSurfacesError: the underlying writer being torn
// down mid-run (every subsequent write rejected) is reported, not swallowed
// by the buffered flush on Close.
func TestSinkWriteAfterCloseSurfacesError(t *testing.T) {
	l := NewWithOptions(LevelView, Options{SegmentSize: 16})
	w := &flakyWriter{failAfter: 1 << 30}
	if err := l.AttachSink(w); err != nil {
		t.Fatal(err)
	}
	w.Close() // torn down before anything is flushed
	tid := l.NewTid()
	for i := 1; i <= 100; i++ {
		l.Append(ctrEntry(tid, i))
	}
	l.Close()
	err := l.SinkErr()
	if err == nil {
		t.Fatal("write-after-close not surfaced")
	}
	if !strings.Contains(err.Error(), "write after close") {
		t.Fatalf("unexpected sink error: %v", err)
	}
}

// TestAttachSecondSinkFails: one sink per log.
func TestAttachSecondSinkFails(t *testing.T) {
	l := New(LevelView)
	if err := l.AttachSink(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := l.AttachSink(io.Discard); err == nil {
		t.Fatal("second sink attached")
	}
	l.Close()
}

// TestWindowBackpressureBlocksAndReleases: with a full window and no reader
// progress, Append must block; consuming entries must release it.
func TestWindowBackpressureBlocksAndReleases(t *testing.T) {
	const window = 64
	l := NewWithOptions(LevelView, Options{SegmentSize: 16, Window: window})
	cur := l.Cursor()
	tid := l.NewTid()
	for i := 1; i <= window; i++ {
		l.Append(ctrEntry(tid, i))
	}

	appended := make(chan struct{})
	go func() {
		l.Append(ctrEntry(tid, window+1)) // window full: must block
		close(appended)
	}()
	select {
	case <-appended:
		t.Fatal("append past the window did not block")
	case <-time.After(50 * time.Millisecond):
	}

	// Wakeups are batched: the reader wakes parked producers once it has
	// consumed a wake stride's worth of entries.
	for i := int64(0); i < l.wakeStride; i++ {
		if _, ok := cur.Next(); !ok {
			t.Fatal("cursor ended unexpectedly")
		}
	}
	select {
	case <-appended:
	case <-time.After(2 * time.Second):
		t.Fatal("append not released by reader progress")
	}
	if st := l.Stats(); st.BlockedWaits == 0 {
		t.Fatalf("backpressure wait not counted: %s", st)
	}
	// Drain and close from the reader side.
	go func() {
		for {
			if _, ok := cur.Next(); !ok {
				return
			}
		}
	}()
	l.Close()
}

// TestCloseUnblocksWindowedProducer: Close must wake a producer parked on
// window backpressure; the append then panics like any append-after-close.
func TestCloseUnblocksWindowedProducer(t *testing.T) {
	const window = 8
	l := NewWithOptions(LevelView, Options{SegmentSize: 8, Window: window})
	l.Cursor() // registered but never reading: the producer stays parked
	tid := l.NewTid()
	for i := 1; i <= window; i++ {
		l.Append(ctrEntry(tid, i))
	}
	unblocked := make(chan any, 1)
	go func() {
		defer func() { unblocked <- recover() }()
		l.Append(ctrEntry(tid, window+1))
	}()
	time.Sleep(20 * time.Millisecond) // let the producer park
	l.Close()
	select {
	case r := <-unblocked:
		if r == nil {
			t.Fatal("append to a closed log succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake the parked producer")
	}
}

// TestSinkHoldsTruncation: the async sink registers as a reader, so a slow
// sink — not just a slow cursor — bounds truncation. Nothing the sink has
// not persisted may be released.
func TestSinkHoldsTruncation(t *testing.T) {
	const segSize = 16
	l := NewWithOptions(LevelView, Options{SegmentSize: segSize, Truncate: true})
	var buf safeBuffer
	if err := l.AttachSink(&buf); err != nil {
		t.Fatal(err)
	}
	cur := l.Cursor()
	tid := l.NewTid()
	const total = 20 * segSize
	for i := 1; i <= total; i++ {
		l.Append(ctrEntry(tid, i))
	}
	for i := 0; i < total; i++ {
		if _, ok := cur.Next(); !ok {
			t.Fatal("cursor ended early")
		}
	}
	l.Close() // waits for the sink to drain and flush
	if err := l.SinkErr(); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != total {
		t.Fatalf("sink persisted %d entries, want %d (truncation outran persistence?)", len(restored), total)
	}
	for i, e := range restored {
		if e.Seq != int64(i+1) {
			t.Fatalf("persisted stream has hole at index %d: seq %d", i, e.Seq)
		}
	}
}

// safeBuffer is a mutex-guarded bytes buffer: the sink goroutine writes it
// while the test later reads it.
type safeBuffer struct {
	mu  sync.Mutex
	buf []byte
	off int
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *safeBuffer) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.off >= len(b.buf) {
		return 0, io.EOF
	}
	n := copy(p, b.buf[b.off:])
	b.off += n
	return n, nil
}

// TestWindowWakeStress is the parked-producer wake audit: a tiny window,
// unserialized producers that park on it constantly, and a consumer that
// stalls at random — every producer park must be matched by a reader-side
// wake and every reader park by a publish-side one. A lost wakeup fails the
// test by timeout; bounded retention is asserted via Stats.
func TestWindowWakeStress(t *testing.T) {
	const nProd, perProd = 8, 2_000
	const segSize, window = 16, 128
	l := NewWithOptions(LevelView, Options{SegmentSize: segSize, Window: window})
	cur := l.Cursor()
	done := make(chan int)
	go func() {
		rng := rand.New(rand.NewSource(42))
		n := 0
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
			n++
			if rng.Intn(512) == 0 {
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
		}
		done <- n
	}()
	var wg sync.WaitGroup
	for p := 0; p < nProd; p++ {
		tid := l.NewTid()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				l.Append(entry(tid, "M"))
			}
		}()
	}
	wg.Wait()
	l.Close()
	if n := <-done; n != nProd*perProd {
		t.Fatalf("consumer drained %d entries, want %d", n, nProd*perProd)
	}
	st := l.Stats()
	if st.Appends != nProd*perProd {
		t.Fatalf("stats appends = %d, want %d", st.Appends, nProd*perProd)
	}
	// Producers check the window before reserving, so each can overshoot it
	// by one entry; two segments of slack cover the partial head and tail.
	if bound := int64(window + nProd + 2*segSize); st.PeakRetainedEntries > bound {
		t.Fatalf("peak retained %d exceeds window bound %d (stats: %s)", st.PeakRetainedEntries, bound, st)
	}
}

// BenchmarkOnlinePipeline measures the capture-to-checker pipeline inside
// the wal package: parallel producers appending while one cursor drains the
// total order under window backpressure.
func BenchmarkOnlinePipeline(b *testing.B) {
	l := NewWithOptions(LevelView, Options{SegmentSize: 4096, Window: 1 << 16})
	cur := l.Cursor()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := cur.Next(); !ok {
				return
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		e := entry(l.NewTid(), "M")
		for pb.Next() {
			l.Append(e)
		}
	})
	b.StopTimer()
	l.Close()
	<-done
}
