// Package wal implements the VYRD execution log (Section 4.2 and 6.1 of the
// paper): a totally ordered, concurrently appended record of the visible
// actions of an instrumented implementation.
//
// Implementation threads append entries as they run; the verification thread
// reads them through a Cursor and performs refinement checking, either
// concurrently with the execution (online) or afterwards from a snapshot or
// a persisted file (offline). To keep log order consistent with the
// execution, instrumented code appends each entry while holding the locks
// that make the logged action visible to other threads, so the sequence
// numbers assigned here coincide with the order the actions take effect.
//
// # Architecture
//
// The paper's own measurements (Tables 2-3) make logging the dominant
// runtime cost of VYRD, so the log is built as a high-throughput pipeline
// rather than a mutex-guarded slice:
//
//   - Appends reserve a sequence number with a single atomic increment and
//     publish the entry into a slot of a fixed-size segment by storing the
//     sequence number into the slot's publication field (readers accept a
//     slot only when it matches). Concurrent producers never contend on a
//     lock in the steady state; the shared mutex is touched only on segment
//     boundaries and when a reader is parked.
//   - Storage is chunked: segments of SegmentSize entries, reachable
//     through a small index map, instead of one ever-growing slice. With
//     truncation enabled (Options.Truncate), segments fully consumed by
//     every registered reader are released, so online checking of a long
//     run retains O(window) entries instead of O(execution).
//   - Persistence (AttachSink) is asynchronous: a sink goroutine drains
//     committed entries through a bufio.Writer-backed event.Encoder, instead
//     of encoding synchronously inside the append path. Close waits for the
//     sink to drain and flush, and SinkErr reports the first write or flush
//     failure.
//   - Stats() exposes lightweight counters (appends, blocked waits,
//     truncated segments, sink queue depth, max verifier lag) for the
//     benchmark tables and for capacity planning.
//
// This is the only log implementation: the single-mutex log it replaced and
// a sharded per-core variant were measured against it and retired (see
// DESIGN.md "Retired designs").
package wal

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/event"
)

// Level selects how much of the execution is recorded (Section 6.2; Table 2
// measures the cost of each level).
type Level uint8

const (
	// LevelOff disables logging entirely; every probe operation is a no-op.
	// This is the "program alone" baseline of Tables 2 and 3.
	LevelOff Level = iota
	// LevelIO records call, return and commit actions: everything I/O
	// refinement checking needs (Section 4.2).
	LevelIO
	// LevelView additionally records shared-variable writes in the support
	// of viewI and commit-block delimiters: everything view refinement
	// checking needs (Section 5.1).
	LevelView
)

// String returns the name of the level.
func (l Level) String() string {
	switch l {
	case LevelOff:
		return "off"
	case LevelIO:
		return "io"
	case LevelView:
		return "view"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// DefaultSegmentSize is the number of entries per storage segment.
const DefaultSegmentSize = 1024

// Options tunes the log's storage pipeline. The zero value gives an
// unbounded log with DefaultSegmentSize segments and no truncation, which
// preserves the semantics callers of New expect.
type Options struct {
	// SegmentSize is the number of entries per segment; 0 means
	// DefaultSegmentSize. Truncation and retention accounting work at
	// segment granularity.
	SegmentSize int

	// Truncate releases segments once every registered reader (cursors and
	// the sink) has consumed them. Snapshot then returns only the retained
	// suffix; offline checking of a truncated log is not meaningful, so
	// enable truncation only for online pipelines. With no reader registered
	// every segment is vacuously consumed, so the log keeps only the newest
	// segments and discards the rest — attach the checker or sink before
	// appending, or the prefix is gone. (BenchmarkAppendParallel uses this
	// reader-free mode deliberately, to measure the append path alone at
	// bounded memory.)
	Truncate bool

	// Window, when > 0, bounds the number of entries retained ahead of the
	// slowest registered reader: appenders block once the log is Window
	// entries ahead. Implies Truncate. With no reader registered (no cursor,
	// no sink) there is nothing to be ahead of and the window does not
	// engage; with one, an active reader is required for appenders to make
	// progress. This is the backpressure that keeps peak memory at
	// O(Window) under sustained load.
	Window int

	// SyncEvery is the sync-marker cadence of the attached encoder sink:
	// after every SyncEvery entries the sink writes a sync marker frame,
	// flushes its buffer, and — when the underlying writer supports it —
	// fsyncs, bounding how much a crash can lose. 0 means DefaultSyncEvery;
	// < 0 disables periodic sync points (a single marker still terminates
	// the stream on Flush). The cadence is counted in entries, so a log's
	// byte stream stays a deterministic function of its entries regardless
	// of writer timing.
	SyncEvery int

	// FailStop makes Append panic once the attached sink has latched a
	// write error, instead of letting producers keep appending entries
	// that will never be persisted. Recording-for-offline runs want this
	// (a log that cannot reach disk is worthless); online pipelines where
	// the sink is an auxiliary tap keep the default and poll SinkErr.
	FailStop bool
}

// DefaultSyncEvery is the default sync-marker cadence, in entries.
const DefaultSyncEvery = 1024

// slotData pairs an entry with its publication flag. It is padded out to a
// whole number of cache lines (slot) so that producers publishing adjacent
// sequence numbers never store into the same line: with a packed flag array
// (64 flags per line) every publication invalidated the line every other
// producer and the reader were using, which inverted the parallel-append
// scaling this layout exists to provide.
type slotData struct {
	// pub is the sequence number published into this slot, 0 while empty.
	// Using the sequence number rather than a boolean as the publication
	// flag means a recycled segment needs no O(SegmentSize) flag reset
	// under the mutex (a stale sequence never matches the one a reader or
	// the next producer expects), so segment turnover stays O(1).
	pub atomic.Int64
	e   event.Entry
}

type slot struct {
	slotData
	_ [(unsafe.Sizeof(slotData{})+63)/64*64 - unsafe.Sizeof(slotData{})]byte
}

// segment is one fixed-size chunk of the log. Slots are written exactly
// once by the reserving producer and become visible when the slot's pub
// field holds the expected sequence number; after that they are immutable
// for as long as the segment is reachable, so readers holding a pinned
// segment pointer can keep reading it even after the log has released it.
//
// Truncated segments with no pins are recycled through a bounded free list:
// a windowed pipeline turns over thousands of segments per second, and
// allocating each one fresh makes the allocator and the garbage collector
// (zeroing, sweeping, heap locks) the dominant cost of the append path.
type segment struct {
	// index is the segment number; the segment holds seqs [index*size+1,
	// (index+1)*size]. Atomic because recycling rewrites it under the mutex
	// while a lock-free fast path may still be comparing it through a tail
	// pointer it loaded before the segment was released.
	index atomic.Int64
	slots []slot
	// pins counts Snapshot readers holding this segment outside the mutex;
	// guarded by Log.mu. A pinned segment is never recycled.
	pins int
}

// freeListCap bounds the recycled-segment stack.
const freeListCap = 32

// Stats is a point-in-time snapshot of the log's counters. The JSON tags
// are the serialization of the machine-readable surface that reports
// pipeline counters (the vyrdd /metrics endpoint).
type Stats struct {
	// Appends is the number of entries appended (equals the highest
	// reserved sequence number).
	Appends int64 `json:"appends"`
	// BlockedWaits counts reader parks (cursor, sink or snapshot waiting
	// for an unpublished entry) and producer backpressure waits.
	BlockedWaits int64 `json:"blocked_waits"`
	// RetainedSegments and RetainedEntries describe current memory: the
	// segments the log still references and the entry capacity they hold.
	RetainedSegments int64 `json:"retained_segments"`
	RetainedEntries  int64 `json:"retained_entries"`
	// PeakRetainedEntries is the largest retained-entry count observed.
	PeakRetainedEntries int64 `json:"peak_retained_entries"`
	// TruncatedSegments and TruncatedEntries count storage released by
	// consumed-prefix truncation.
	TruncatedSegments int64 `json:"truncated_segments"`
	TruncatedEntries  int64 `json:"truncated_entries"`
	// SinkQueueDepth is the number of appended entries the async sink has
	// not yet encoded (0 when no sink is attached).
	SinkQueueDepth int64 `json:"sink_queue_depth"`
	// MaxVerifierLag is the largest gap observed between the newest
	// appended entry and a cursor consuming one.
	MaxVerifierLag int64 `json:"max_verifier_lag"`
}

// String renders the stats in one line for the benchmark tables.
func (s Stats) String() string {
	return fmt.Sprintf(
		"appends=%d blocked-waits=%d retained=%d/%dseg peak-retained=%d truncated=%dseg/%dent sink-queue=%d max-lag=%d",
		s.Appends, s.BlockedWaits, s.RetainedEntries, s.RetainedSegments,
		s.PeakRetainedEntries, s.TruncatedSegments, s.TruncatedEntries,
		s.SinkQueueDepth, s.MaxVerifierLag)
}

// padded wraps an atomic counter in its own cache line. The hot-path stats
// counters live in these slots: maxLag and peakRetained are stored by the
// reader side, blockedWaits by whichever side parks — packing them next to
// the producers' reservation line made every metrics update invalidate the
// line every Append loads. Aggregation happens on Stats() reads, never in
// the hot path.
type padded struct {
	v atomic.Int64
	_ [64 - 8]byte
}

// Log is the shared execution log. The zero value is not usable; construct
// with New or NewWithOptions. Every producer reserves its sequence number
// from one counter: the strict total order the paper describes.
type Log struct {
	level Level
	opts  Options

	nextTid atomic.Int32
	closed  atomic.Bool
	_       [64 - 8]byte

	// reserved is the last sequence number handed to a producer; the
	// append counter of Stats. Producer-hot: padded so reader-side stores
	// (stats, wait registration) never invalidate its line.
	reserved atomic.Int64
	_        [64 - 8]byte

	// tail caches the newest segment for the append fast path.
	tail atomic.Pointer[segment]
	_    [64 - 8]byte

	// minWait, when non-zero, is the smallest sequence number a parked
	// reader is waiting for; producers publishing at or past it take the
	// mutex and broadcast. prodWait flags parked producers (backpressure).
	minWait  atomic.Int64
	prodWait atomic.Bool

	// wakeStride batches backpressure wakeups: with producers parked, the
	// readers refresh minReader (and broadcast) every wakeStride consumed
	// entries rather than on each one. 0 when Window is off.
	wakeStride int64

	// minReader caches the slowest registered reader position, maintained
	// only when Window backpressure is enabled.
	minReader atomic.Int64
	_         [64 - 8]byte

	mu   sync.Mutex
	cond *sync.Cond
	// segs indexes retained segments; firstSeg is the lowest retained
	// segment number (segments below it have been truncated).
	segs     map[int64]*segment
	firstSeg int64
	free     []*segment
	cursors  []*Cursor
	sink     *sink

	blockedWaits  padded
	truncatedSegs padded
	maxLag        padded
	peakRetained  padded

	// sinkBroken mirrors "the sink has latched an error" as a lone flag so
	// the FailStop check on the append fast path is one relaxed load, not
	// a mutex acquisition.
	sinkBroken atomic.Bool
}

// New returns an empty log recording at the given level, with default
// storage options (unbounded, no truncation).
func New(level Level) *Log { return NewWithOptions(level, Options{}) }

// NewWithOptions returns an empty log with explicit storage options.
func NewWithOptions(level Level, opts Options) *Log {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if opts.Window > 0 {
		opts.Truncate = true
	}
	l := &Log{level: level, opts: opts, segs: make(map[int64]*segment)}
	// Wake parked producers in batches of an eighth of the window: waking
	// them on every consumed entry would have the reader taking the mutex
	// and broadcasting at entry rate whenever the window is full, which
	// serializes the whole pipeline on the lock.
	if opts.Window > 0 {
		l.wakeStride = int64(opts.Window / 8)
		if l.wakeStride < 1 {
			l.wakeStride = 1
		}
		if s := int64(opts.SegmentSize); l.wakeStride > s {
			l.wakeStride = s
		}
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Level reports the recording level the log was created with.
func (l *Log) Level() Level { return l.level }

// NewTid allocates a fresh thread identifier. Each goroutine that performs
// logged actions must use its own identifier (its own Probe).
func (l *Log) NewTid() int32 { return l.nextTid.Add(1) }

// Append adds an entry to the log, assigning and returning its sequence
// number. Safe for concurrent use. Appending to a closed log panics: it
// indicates the harness tore down the log while workers were still running.
//
// The publication order — slot store, then pub store, then the minWait
// load — pairs with park's register-then-recheck order so wakeups are never
// lost.
func (l *Log) Append(e event.Entry) int64 {
	if l.closed.Load() {
		panic("wal: append to closed log")
	}
	if l.opts.FailStop && l.sinkBroken.Load() {
		panic(fmt.Sprintf("wal: fail-stop: sink error: %v", l.SinkErr()))
	}
	if l.opts.Window > 0 {
		l.waitWindow()
		if l.closed.Load() {
			panic("wal: append to closed log")
		}
	}
	pos := l.reserved.Add(1)
	e.Seq = pos
	size := int64(l.opts.SegmentSize)
	seg := l.segmentForAppend((pos - 1) / size)
	sl := &seg.slots[(pos-1)%size]
	sl.e = e
	sl.pub.Store(pos)
	// Wake a parked reader iff one is waiting for this entry (or an
	// earlier one another producer is about to publish; spurious wakeups
	// are harmless, lost wakeups are prevented by the registration order:
	// readers register minWait before re-checking the slot).
	if w := l.minWait.Load(); w != 0 && w <= pos {
		l.mu.Lock()
		l.minWait.Store(0)
		l.cond.Broadcast()
		l.mu.Unlock()
	}
	return pos
}

// waitWindow blocks the producer while the log is Window entries ahead of
// the slowest registered reader. The fast path trusts the cached minReader;
// before actually parking, the min is recomputed under the mutex — readers
// only refresh the cache at segment granularity, so the cached value may be
// stale enough to park a producer the window would in fact admit.
func (l *Log) waitWindow() {
	win := int64(l.opts.Window)
	if l.reserved.Load()-l.minReader.Load() < win {
		return
	}
	l.mu.Lock()
	for l.reserved.Load()-l.recomputeMinLocked() >= win && !l.closed.Load() {
		l.prodWait.Store(true)
		l.blockedWaits.v.Add(1)
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// recomputeMinLocked refreshes the cached slowest-reader position. Callers
// must hold l.mu.
func (l *Log) recomputeMinLocked() int64 {
	min := l.reserved.Load()
	for _, c := range l.cursors {
		if p := c.pos.Load(); p < min {
			min = p
		}
	}
	if l.sink != nil {
		if p := l.sink.pos.Load(); p < min {
			min = p
		}
	}
	l.minReader.Store(min)
	return min
}

// segmentForAppend returns the segment with the given index, creating it
// (and updating the tail cache) if needed.
func (l *Log) segmentForAppend(idx int64) *segment {
	if seg := l.tail.Load(); seg != nil && seg.index.Load() == idx {
		return seg
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if seg, ok := l.segs[idx]; ok {
		return seg
	}
	if idx < l.firstSeg {
		// The segment was already truncated (possible only in the
		// no-registered-reader discard mode, where min runs at the
		// reservation count). Hand the producer a throwaway segment so its
		// store lands somewhere harmless; the entry is discarded, which is
		// what truncation of its position means.
		return l.newSegment(idx)
	}
	var seg *segment
	if n := len(l.free); n > 0 {
		// No slot reset needed: stale pub values never match the sequence
		// numbers this segment's readers and writers will use.
		seg = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		seg.index.Store(idx)
	} else {
		seg = l.newSegment(idx)
	}
	l.segs[idx] = seg
	if t := l.tail.Load(); t == nil || t.index.Load() < idx {
		l.tail.Store(seg)
	}
	if retained := int64(len(l.segs)) * int64(l.opts.SegmentSize); retained > l.peakRetained.v.Load() {
		l.peakRetained.v.Store(retained)
	}
	if l.opts.Truncate {
		// Drive truncation from the append side too (once per segment, with
		// the mutex already held): a log with no registered readers would
		// otherwise never release anything, and a reader-driven pipeline gets
		// a second chance to release storage the reader has since passed.
		l.truncateLocked(l.recomputeMinLocked())
	}
	return seg
}

// newSegment allocates a fresh segment holding the given index.
func (l *Log) newSegment(idx int64) *segment {
	seg := &segment{slots: make([]slot, l.opts.SegmentSize)}
	seg.index.Store(idx)
	return seg
}

// segmentFor returns the retained segment with the given index, or nil if
// it does not exist yet or has been truncated.
func (l *Log) segmentFor(idx int64) *segment {
	if seg := l.tail.Load(); seg != nil && seg.index.Load() == idx {
		return seg
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[idx]
}

// read returns the entry with sequence number seq if it is published.
func (l *Log) read(seg *segment, seq int64) (event.Entry, bool) {
	off := (seq - 1) % int64(l.opts.SegmentSize)
	sl := &seg.slots[off]
	if sl.pub.Load() != seq {
		return event.Entry{}, false
	}
	return sl.e, true
}

// readerSpins is how many times a reader yields and re-polls an unpublished
// entry before parking on the condition variable. A reader that keeps pace
// with the producers would otherwise park after every entry, and each park
// forces the next Append through the mutex-and-broadcast wake path —
// serializing the producers on the very lock the segmented design removes.
const readerSpins = 64

// await blocks until the entry with sequence number seq is published or the
// closed log can never produce it. The second return is false at end of log.
func (l *Log) await(seq int64) (event.Entry, bool) {
	size := int64(l.opts.SegmentSize)
	idx := (seq - 1) / size
	spins := 0
	for {
		if seg := l.segmentFor(idx); seg != nil {
			if e, ok := l.read(seg, seq); ok {
				return e, true
			}
		}
		if l.closed.Load() && seq > l.reserved.Load() {
			return event.Entry{}, false
		}
		if spins < readerSpins {
			spins++
			runtime.Gosched()
			continue
		}
		l.park(seq, idx)
	}
}

// park blocks the calling reader until the entry with sequence number seq
// may have been published. The registration order (store minWait, then
// re-check the slot under the mutex) pairs with Append's
// publish-then-load-minWait order so wakeups are never lost.
func (l *Log) park(seq, idx int64) {
	l.mu.Lock()
	if w := l.minWait.Load(); w == 0 || seq < w {
		l.minWait.Store(seq)
	}
	if seg := l.segs[idx]; seg != nil {
		off := (seq - 1) % int64(l.opts.SegmentSize)
		if seg.slots[off].pub.Load() == seq {
			l.mu.Unlock()
			return
		}
	}
	if l.closed.Load() {
		l.mu.Unlock()
		return
	}
	l.blockedWaits.v.Add(1)
	l.cond.Wait()
	l.mu.Unlock()
}

// Len reports the number of entries appended so far.
func (l *Log) Len() int { return int(l.reserved.Load()) }

// Snapshot returns a copy of the retained entries appended so far, for
// offline checking of a completed (or quiesced) execution. Without
// truncation this is the whole log from sequence 1; with truncation it is
// the suffix starting at the oldest retained segment. The snapshot is the
// contiguous published prefix: entries whose append is still in flight end
// it early (they are not yet part of the log).
func (l *Log) Snapshot() []event.Entry {
	n := l.reserved.Load()
	size := int64(l.opts.SegmentSize)
	l.mu.Lock()
	start := l.firstSeg*size + 1
	// Pin the retained segments: a pinned segment is immutable (never
	// recycled), so the copy below is safe even if truncation releases it
	// mid-read.
	pinned := make(map[int64]*segment, len(l.segs))
	for idx, s := range l.segs {
		s.pins++
		pinned[idx] = s
	}
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		for _, s := range pinned {
			s.pins--
		}
		l.mu.Unlock()
	}()
	if start > n {
		return nil
	}
	out := make([]event.Entry, 0, n-start+1)
	for seq := start; seq <= n; seq++ {
		idx := (seq - 1) / size
		seg := pinned[idx]
		for spin := 0; seg == nil && spin < snapshotSpins; spin++ {
			// The producer that reserved seq has not allocated its segment
			// yet; the gap between reservation and publication is tiny.
			runtime.Gosched()
			seg = l.pinSegment(idx)
		}
		if seg == nil {
			break
		}
		pinned[idx] = seg
		e, ok := l.read(seg, seq)
		for spin := 0; !ok && spin < snapshotSpins; spin++ {
			runtime.Gosched()
			e, ok = l.read(seg, seq)
		}
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out
}

// pinSegment returns the retained segment with the given index pinned
// against recycling, or nil. The caller owns one pin per non-nil return.
func (l *Log) pinSegment(idx int64) *segment {
	l.mu.Lock()
	defer l.mu.Unlock()
	seg := l.segs[idx]
	if seg != nil {
		seg.pins++
	}
	return seg
}

// snapshotSpins bounds how long Snapshot waits for an in-flight append to
// publish before ending the snapshot at the gap.
const snapshotSpins = 10_000

// Close marks the log complete, waits for the attached sink (if any) to
// drain and flush, and releases parked readers. Cursors observe end-of-log
// once they have consumed every entry. Closing twice is a no-op.
func (l *Log) Close() {
	l.closed.Store(true)
	l.mu.Lock()
	l.minWait.Store(0)
	l.cond.Broadcast()
	s := l.sink
	l.mu.Unlock()
	if s != nil {
		s.wg.Wait()
	}
}

// Closed reports whether Close has been called.
func (l *Log) Closed() bool { return l.closed.Load() }

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	retainedSegs := int64(len(l.segs))
	s := l.sink
	l.mu.Unlock()
	size := int64(l.opts.SegmentSize)
	st := Stats{
		Appends:             l.reserved.Load(),
		BlockedWaits:        l.blockedWaits.v.Load(),
		RetainedSegments:    retainedSegs,
		RetainedEntries:     retainedSegs * size,
		PeakRetainedEntries: l.peakRetained.v.Load(),
		TruncatedSegments:   l.truncatedSegs.v.Load(),
		TruncatedEntries:    l.truncatedSegs.v.Load() * size,
		MaxVerifierLag:      l.maxLag.v.Load(),
	}
	if s != nil {
		if d := st.Appends - s.pos.Load(); d > 0 {
			st.SinkQueueDepth = d
		}
	}
	return st
}

// advanceReaders recomputes the slowest-reader position and, at segment
// granularity, releases fully consumed segments (when truncation is on) and
// wakes producers blocked on the window.
func (l *Log) advanceReaders() {
	l.mu.Lock()
	min := l.recomputeMinLocked()
	if l.opts.Truncate {
		l.truncateLocked(min)
	}
	if l.prodWait.Load() {
		l.prodWait.Store(false)
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// truncateLocked releases segments wholly below min. Callers must hold l.mu.
//
// With at least one registered reader, min is the slowest reader position
// and released segments were fully consumed. With none, min is the
// reservation count: every reservation is trivially "consumed", and the log
// degrades to a bounded recent-suffix buffer — Snapshot and late cursors see
// only what is still retained. In that mode a producer may still be
// publishing into a released segment (it reserved a slot but has not stored
// the entry yet), so a segment is recycled only once every slot is
// observably published; otherwise it is left for the garbage collector,
// where a late store into it is harmless because nothing reads it.
func (l *Log) truncateLocked(min int64) {
	size := int64(l.opts.SegmentSize)
	// Track the peak before releasing anything: retention grows
	// monotonically between truncations, so this observes the true peak
	// without touching the append fast path.
	if retained := int64(len(l.segs)) * size; retained > l.peakRetained.v.Load() {
		l.peakRetained.v.Store(retained)
	}
	for (l.firstSeg+1)*size <= min {
		if seg, ok := l.segs[l.firstSeg]; ok {
			delete(l.segs, l.firstSeg)
			l.truncatedSegs.v.Add(1)
			if l.tail.Load() == seg {
				// The lock-free fast paths reach segments through the tail
				// cache without the mutex; a segment on the free list must
				// not stay reachable that way, or its reinitialization
				// races with those reads.
				l.tail.Store(nil)
			}
			if seg.pins == 0 && len(l.free) < freeListCap && fullyPublished(seg, size) {
				l.free = append(l.free, seg)
			}
		}
		l.firstSeg++
	}
}

// fullyPublished reports whether every slot of the segment holds its own
// entry. Observing every expected sequence number means every producer that
// reserved a slot here has completed its store, so the segment can be
// reused without racing a late publication.
func fullyPublished(seg *segment, size int64) bool {
	base := seg.index.Load() * size
	for i := range seg.slots {
		if seg.slots[i].pub.Load() != base+int64(i)+1 {
			return false
		}
	}
	return true
}

// SinkErr returns the first error encountered while persisting entries to
// the attached sink, if any. It is final once Close has returned.
func (l *Log) SinkErr() error {
	l.mu.Lock()
	s := l.sink
	l.mu.Unlock()
	if s == nil {
		return nil
	}
	if err, ok := s.err.Load().(error); ok {
		return err
	}
	return nil
}

// EntrySink consumes drained entries on the log's sink goroutine, in log
// order. It is the seam both persistence and remote shipping attach at:
// AttachSink wraps an io.Writer in the codec-encoding sink, and a remote
// client implements EntrySink directly to ship entries off-box. WriteEntry
// may block (a bounded remote buffer under backpressure); blocking stalls
// the sink reader, which in turn engages the log's Window backpressure on
// producers. Flush is called once, after the last entry of the closed log
// has been written, and must complete the stream (flush buffers, deliver
// the final frames).
type EntrySink interface {
	WriteEntry(e event.Entry) error
	Flush() error
}

// SyncWriter is an io.Writer whose buffered contents can be forced to
// stable storage. *os.File and faultfs.File satisfy it; attach targets
// that do (log files) get fsync'd sync points, targets that don't (network
// pipes, in-memory buffers) get markers and flushes only.
type SyncWriter interface {
	io.Writer
	Sync() error
}

// encoderSink is the io.Writer-backed EntrySink: entries are encoded with
// the event codec through a bufio.Writer (the analogue of the paper's
// serialized log file). Every SyncEvery entries it writes a sync marker
// frame, flushes, and fsyncs when the writer supports it — the durability
// cadence wal.Recover leans on. The cadence counts entries, never bytes or
// time, so a log's byte stream is a deterministic function of its entries.
type encoderSink struct {
	bw    *bufio.Writer
	enc   *event.Encoder
	sync  SyncWriter // nil when the underlying writer has no Sync
	every int64      // sync-point cadence in entries; <= 0 disables
	n     int64      // entries since the last sync point
	last  int64      // highest sequence number written
}

func (s *encoderSink) WriteEntry(e event.Entry) error {
	if err := s.enc.Encode(e); err != nil {
		return err
	}
	s.last = e.Seq
	if s.every > 0 {
		if s.n++; s.n >= s.every {
			s.n = 0
			return s.syncPoint()
		}
	}
	return nil
}

// syncPoint writes a marker recording the entries so far, pushes them out
// of the bufio buffer, and fsyncs. Flushing here — not just at Close — is
// also what surfaces a broken writer while the run is still going: without
// it a mid-run write error hides in the buffer until the final flush.
func (s *encoderSink) syncPoint() error {
	if err := s.enc.SyncMarker(s.last); err != nil {
		return err
	}
	if err := s.bw.Flush(); err != nil {
		return err
	}
	if s.sync != nil {
		return s.sync.Sync()
	}
	return nil
}

func (s *encoderSink) Flush() error {
	if s.last > 0 {
		return s.syncPoint()
	}
	return s.bw.Flush()
}

// sink drains published entries to an EntrySink on its own goroutine. It
// registers as a reader so truncation never outruns persistence.
type sink struct {
	es  EntrySink
	pos atomic.Int64
	err atomic.Value
	wg  sync.WaitGroup
	// broken, when non-nil, is raised alongside the first latched error
	// (the log's FailStop flag).
	broken *atomic.Bool
}

func (s *sink) fail(err error) {
	if err == nil {
		return
	}
	// Record only the first failure; keep draining so truncation and
	// backpressure are not wedged by a broken writer.
	if s.err.CompareAndSwap(nil, err) && s.broken != nil {
		s.broken.Store(true)
	}
}

// AttachSink starts persisting appended entries to w using the event codec
// (the analogue of the paper's serialized log file): a dedicated goroutine
// drains the log through a buffered writer and flushes on Close. When w
// implements SyncWriter, sync points (marker + flush + fsync) are taken
// every Options.SyncEvery entries. Entries already in the log (and still
// retained) are written out first so the stream is complete. Attaching a
// second sink is an error.
func (l *Log) AttachSink(w io.Writer) error {
	bw := bufio.NewWriter(w)
	es := &encoderSink{bw: bw, enc: event.NewEncoder(bw)}
	if sw, ok := w.(SyncWriter); ok {
		es.sync = sw
	}
	switch {
	case l.opts.SyncEvery > 0:
		es.every = int64(l.opts.SyncEvery)
	case l.opts.SyncEvery == 0:
		es.every = DefaultSyncEvery
	}
	return l.AttachEntrySink(es)
}

// AttachEntrySink starts draining appended entries into es on a dedicated
// goroutine, in log order; Close waits for the drain and for es.Flush.
// Entries already in the log (and still retained) are delivered first so
// the stream is complete. Attaching a second sink is an error.
func (l *Log) AttachEntrySink(es EntrySink) error {
	s := &sink{es: es, broken: &l.sinkBroken}
	l.mu.Lock()
	if l.sink != nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: sink already attached")
	}
	s.pos.Store(l.firstSeg * int64(l.opts.SegmentSize))
	l.sink = s
	l.mu.Unlock()
	s.wg.Add(1)
	go l.runSink(s)
	return nil
}

// runSink is the sink goroutine: drain published entries in order, hand
// them to the entry sink (unless a previous write failed), and flush at end
// of log.
func (l *Log) runSink(s *sink) {
	defer s.wg.Done()
	for {
		seq := s.pos.Load() + 1
		e, ok := l.await(seq)
		if !ok {
			break
		}
		if s.err.Load() == nil {
			s.fail(s.es.WriteEntry(e))
		}
		s.pos.Store(seq)
		if l.opts.Truncate && (seq%int64(l.opts.SegmentSize) == 0 ||
			(l.prodWait.Load() && seq%l.wakeStride == 0)) {
			l.advanceReaders()
		}
	}
	if s.err.Load() == nil {
		s.fail(s.es.Flush())
	}
}

// Cursor reads the log in order. A cursor is owned by a single goroutine
// (the verification thread). Cursors register with the log: with truncation
// enabled, storage is only released once every cursor has passed it.
type Cursor struct {
	log *Log
	pos atomic.Int64 // sequence number of the last consumed entry
	seg *segment     // cached segment containing pos+1
}

// Cursor returns a new cursor positioned at the oldest retained entry (the
// start of the log unless truncation has already released a prefix).
func (l *Log) Cursor() *Cursor {
	c := &Cursor{log: l}
	l.mu.Lock()
	c.pos.Store(l.firstSeg * int64(l.opts.SegmentSize))
	l.cursors = append(l.cursors, c)
	l.mu.Unlock()
	return c
}

// fetch returns the published entry with sequence number seq, consulting
// the cursor's cached segment first.
func (c *Cursor) fetch(seq int64) (event.Entry, bool) {
	size := int64(c.log.opts.SegmentSize)
	idx := (seq - 1) / size
	if c.seg == nil || c.seg.index.Load() != idx {
		seg := c.log.segmentFor(idx)
		if seg == nil {
			return event.Entry{}, false
		}
		c.seg = seg
	}
	return c.log.read(c.seg, seq)
}

// advance records consumption of seq and maintains lag/truncation state.
// Truncation and window bookkeeping run at segment granularity — or on
// every entry while a producer is parked on backpressure, so wakeups are
// prompt even when Window < SegmentSize. Doing it per entry in the steady
// state would have the reader invalidating the producers' cached minReader
// line (and taking the mutex) millions of times a second.
func (c *Cursor) advance(seq int64) {
	c.pos.Store(seq)
	atBoundary := seq%int64(c.log.opts.SegmentSize) == 0
	if atBoundary {
		// Drop the segment cache at the boundary: once pos passes a segment
		// it becomes eligible for truncation and recycling, and a recycled
		// segment must never be reachable through a stale cursor cache.
		c.seg = nil
	}
	if atBoundary || seq == 1 {
		// Sample verifier lag at segment granularity: loading reserved on
		// every consume keeps pulling the producers' reservation line into
		// shared state, which taxes every concurrent Append.
		if lag := c.log.reserved.Load() - seq; lag > c.log.maxLag.v.Load() {
			c.log.maxLag.v.Store(lag)
		}
	}
	if !c.log.opts.Truncate {
		return
	}
	if atBoundary || (c.log.prodWait.Load() && seq%c.log.wakeStride == 0) {
		c.log.advanceReaders()
	}
}

// TryNext returns the next entry without blocking. ok is false if no entry
// is available yet (or ever, if the log is closed and drained).
func (c *Cursor) TryNext() (e event.Entry, ok bool) {
	seq := c.pos.Load() + 1
	e, ok = c.fetch(seq)
	if !ok {
		return event.Entry{}, false
	}
	c.advance(seq)
	return e, true
}

// Next blocks until an entry is available or the log is closed and fully
// consumed, in which case ok is false. Like await, it spins briefly before
// parking so a fast verifier does not drag every producer into the wake
// path.
func (c *Cursor) Next() (e event.Entry, ok bool) {
	seq := c.pos.Load() + 1
	spins := 0
	for {
		if e, ok = c.fetch(seq); ok {
			c.advance(seq)
			return e, true
		}
		if c.log.closed.Load() && seq > c.log.reserved.Load() {
			return event.Entry{}, false
		}
		if spins < readerSpins {
			spins++
			runtime.Gosched()
			continue
		}
		c.log.park(seq, (seq-1)/int64(c.log.opts.SegmentSize))
	}
}

// Pos reports how many entries the cursor has consumed.
func (c *Cursor) Pos() int { return int(c.pos.Load()) }

// Err reports the first failure of the log the cursor reads — today that is
// the sink's persistence error. A drain loop that only watches Next/TryNext
// would otherwise end a run silently with the log half-persisted; checkers
// surface this in their Report.
func (c *Cursor) Err() error { return c.log.SinkErr() }

// Reader is the read surface of a log that the checker pipeline
// (core.Checker.Run, core.RunChecker, core.Multi.Run, the vyrdd session
// drain) consumes; *Cursor implements it, and tests and the benchmark wrap
// it to count or delay reads. A Reader is owned by a single goroutine.
type Reader interface {
	// Next blocks until an entry is available or the log is closed and
	// drained (ok false).
	Next() (e event.Entry, ok bool)
	// TryNext returns the next entry without blocking (ok false when none
	// is available yet).
	TryNext() (e event.Entry, ok bool)
	// Pos reports how many entries this reader has consumed.
	Pos() int
	// Err reports the first failure of the log being read (today: the
	// sink's persistence error).
	Err() error
}

// Reader returns a fresh registered cursor as a Reader.
func (l *Log) Reader() Reader { return l.Cursor() }

// ReadFile decodes a persisted log stream (format versions 2 and 3) into a
// slice of entries, the input to offline checking.
func ReadFile(r io.Reader) ([]event.Entry, error) {
	return event.NewDecoder(r).DecodeAll()
}

// ReadFileParallel decodes a binary-format stream with a parallel decode
// pool (see event.DecodeAllParallel), preserving log order. workers <= 0
// uses GOMAXPROCS.
func ReadFileParallel(r io.Reader, workers int) ([]event.Entry, error) {
	return event.DecodeAllParallel(r, workers)
}
