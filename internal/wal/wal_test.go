package wal

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/event"
)

func entry(tid int32, m string) event.Entry {
	return event.Entry{Tid: tid, Kind: event.KindCall, Method: m}
}

func TestAppendAssignsDenseSequence(t *testing.T) {
	l := New(LevelIO)
	for i := 1; i <= 5; i++ {
		if seq := l.Append(entry(1, "M")); seq != int64(i) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("len = %d", l.Len())
	}
	snap := l.Snapshot()
	for i, e := range snap {
		if e.Seq != int64(i+1) {
			t.Fatalf("snapshot seq %d at index %d", e.Seq, i)
		}
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	l := New(LevelIO)
	l.Append(entry(1, "A"))
	snap := l.Snapshot()
	snap[0].Method = "mutated"
	if l.Snapshot()[0].Method != "A" {
		t.Fatal("snapshot aliases the log")
	}
}

func TestConcurrentAppendTotalOrder(t *testing.T) {
	l := New(LevelIO)
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		tid := l.NewTid()
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.Append(entry(tid, "M"))
			}
		}()
	}
	wg.Wait()
	if l.Len() != goroutines*perG {
		t.Fatalf("lost entries: %d", l.Len())
	}
	// Sequence numbers are dense and strictly increasing.
	for i, e := range l.Snapshot() {
		if e.Seq != int64(i+1) {
			t.Fatalf("hole at index %d: seq %d", i, e.Seq)
		}
	}
}

func TestNewTidUnique(t *testing.T) {
	l := New(LevelIO)
	seen := make(map[int32]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tid := l.NewTid()
				mu.Lock()
				if seen[tid] {
					t.Errorf("duplicate tid %d", tid)
				}
				seen[tid] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestCursorDrainsThenEnds(t *testing.T) {
	l := New(LevelIO)
	for i := 0; i < 10; i++ {
		l.Append(entry(1, "M"))
	}
	l.Close()
	cur := l.Cursor()
	n := 0
	for {
		_, ok := cur.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("cursor read %d entries", n)
	}
	if cur.Pos() != 10 {
		t.Fatalf("cursor pos %d", cur.Pos())
	}
}

func TestCursorBlocksUntilAppend(t *testing.T) {
	l := New(LevelIO)
	cur := l.Cursor()
	got := make(chan event.Entry, 1)
	go func() {
		e, ok := cur.Next()
		if !ok {
			t.Error("cursor ended unexpectedly")
		}
		got <- e
	}()
	l.Append(entry(7, "X"))
	e := <-got
	if e.Tid != 7 || e.Method != "X" {
		t.Fatalf("wrong entry: %v", e)
	}
}

func TestCursorUnblocksOnClose(t *testing.T) {
	l := New(LevelIO)
	cur := l.Cursor()
	done := make(chan bool, 1)
	go func() {
		_, ok := cur.Next()
		done <- ok
	}()
	l.Close()
	if ok := <-done; ok {
		t.Fatal("cursor returned an entry from an empty closed log")
	}
	if !l.Closed() {
		t.Fatal("log not marked closed")
	}
}

func TestTryNextNonBlocking(t *testing.T) {
	l := New(LevelIO)
	cur := l.Cursor()
	if _, ok := cur.TryNext(); ok {
		t.Fatal("TryNext returned an entry from an empty log")
	}
	l.Append(entry(1, "M"))
	if _, ok := cur.TryNext(); !ok {
		t.Fatal("TryNext missed an available entry")
	}
}

func TestAppendAfterClosePanics(t *testing.T) {
	l := New(LevelIO)
	l.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("append to a closed log did not panic")
		}
	}()
	l.Append(entry(1, "M"))
}

func TestCloseIdempotent(t *testing.T) {
	l := New(LevelIO)
	l.Close()
	l.Close()
}

func TestPersistenceRoundTrip(t *testing.T) {
	l := New(LevelView)
	var buf bytes.Buffer
	// Entries appended before the sink attaches must be written too.
	l.Append(event.Entry{Tid: 1, Kind: event.KindCall, Method: "Insert", Args: []event.Value{3}})
	if err := l.AttachSink(&buf); err != nil {
		t.Fatal(err)
	}
	l.Append(event.Entry{Tid: 1, Kind: event.KindCommit, Method: "Insert", WOp: "bump", WArgs: []event.Value{3, 1}})
	l.Append(event.Entry{Tid: 1, Kind: event.KindReturn, Method: "Insert", Ret: true})
	l.Append(event.Entry{Tid: 2, Kind: event.KindWrite, Method: "raw", Args: []event.Value{[]byte{1, 2, 3}}})
	l.Close()
	if err := l.SinkErr(); err != nil {
		t.Fatal(err)
	}

	restored, err := ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := l.Snapshot()
	if len(restored) != len(orig) {
		t.Fatalf("restored %d entries, want %d", len(restored), len(orig))
	}
	for i := range orig {
		a, b := orig[i], restored[i]
		if a.Seq != b.Seq || a.Tid != b.Tid || a.Kind != b.Kind || a.Method != b.Method {
			t.Fatalf("entry %d differs: %v vs %v", i, a, b)
		}
		if !event.Equal(a.Ret, b.Ret) {
			t.Fatalf("entry %d ret differs: %v vs %v", i, a.Ret, b.Ret)
		}
		for j := range a.Args {
			av, bv := a.Args[j], b.Args[j]
			// gob round-trips ints as int64 inside interfaces registered as
			// int; accept numerically equal integers.
			ai, aok := event.Int(av)
			bi, bok := event.Int(bv)
			if aok && bok {
				if ai != bi {
					t.Fatalf("entry %d arg %d differs: %v vs %v", i, j, av, bv)
				}
				continue
			}
			if !event.Equal(av, bv) {
				t.Fatalf("entry %d arg %d differs: %v vs %v", i, j, av, bv)
			}
		}
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{LevelOff: "off", LevelIO: "io", LevelView: "view", Level(9): "level(9)"} {
		if l.String() != want {
			t.Fatalf("Level(%d).String() = %q", l, l.String())
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	l := New(LevelView)
	e := entry(1, "M")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(e)
	}
}

// BenchmarkAppendParallel measures the concurrent append path in isolation:
// a truncating log with no registered reader discards consumed-by-nobody
// segments from the append side and recycles them, so the live heap stays
// at O(segment) and the measurement reflects sequence reservation and slot
// publication rather than the garbage collector walking an ever-growing
// log, and no serial consumer caps the aggregate rate. The rate with a
// cursor draining the log is BenchmarkOnlinePipeline (pipeline_test.go);
// the end-to-end rate with a verifier attached is the repo root's
// BenchmarkOnlinePipeline.
func BenchmarkAppendParallel(b *testing.B) {
	l := NewWithOptions(LevelView, Options{SegmentSize: 1024, Truncate: true})
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tid := l.NewTid()
		e := entry(tid, "M")
		for pb.Next() {
			l.Append(e)
		}
	})
	b.StopTimer()
	l.Close()
}
