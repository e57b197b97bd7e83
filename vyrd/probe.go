package vyrd

import (
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/wal"
)

// Log is the shared execution log of one instrumented run. It wraps the
// internal write-ahead log and is the factory for per-goroutine probes and
// for the verification thread's cursor.
type Log struct {
	wal *wal.Log
}

// LogOptions tunes the log's storage pipeline: segment size, consumed-prefix
// truncation, and the bounded-memory window (see wal.Options).
type LogOptions = wal.Options

// LogStats is a snapshot of the log's pipeline counters (see wal.Stats).
type LogStats = wal.Stats

// LogFormatVersion is the version of the persisted log stream format.
const LogFormatVersion = event.FormatVersion

// ErrLogFormatMismatch reports that a persisted stream is not a VYRD log of
// the version this build reads (detect with errors.Is).
var ErrLogFormatMismatch = event.ErrFormatMismatch

// NewLog returns an empty log recording at the given level.
func NewLog(level Level) *Log { return &Log{wal: wal.New(level)} }

// NewLogWith returns an empty log with explicit storage options, e.g. for
// bounded-memory online checking of long runs:
//
//	log := vyrd.NewLogWith(vyrd.LevelView, vyrd.LogOptions{Window: 1 << 16})
func NewLogWith(level Level, opts LogOptions) *Log {
	return &Log{wal: wal.NewWithOptions(level, opts)}
}

// Level reports the recording level.
func (l *Log) Level() Level { return l.wal.Level() }

// Len reports the number of entries appended so far.
func (l *Log) Len() int { return l.wal.Len() }

// Close marks the execution complete; online checkers drain and stop, and
// an attached sink is drained and flushed before Close returns.
func (l *Log) Close() { l.wal.Close() }

// Snapshot copies the retained entries appended so far, for offline
// checking (the whole log unless truncation released a prefix).
func (l *Log) Snapshot() []Entry { return l.wal.Snapshot() }

// AttachSink persists every entry (including those already appended) to w
// through an asynchronous buffered pipeline; Close flushes it.
func (l *Log) AttachSink(w io.Writer) error { return l.wal.AttachSink(w) }

// SinkErr returns the first persistence failure, if any. It is final once
// Close has returned.
func (l *Log) SinkErr() error { return l.wal.SinkErr() }

// Stats returns a snapshot of the log's pipeline counters.
func (l *Log) Stats() LogStats { return l.wal.Stats() }

// NewProbe allocates a probe for an application thread (Tid_app). Each
// goroutine performing logged actions needs its own probe.
func (l *Log) NewProbe() *Probe {
	tid := l.wal.NewTid()
	p := &Probe{log: l.wal, tid: tid, level: l.wal.Level()}
	p.modKey, p.specVar = moduleKeys("")
	return p
}

// NewWorkerProbe allocates a probe for an internal data-structure worker
// thread (Tid_ds), e.g. a compression or flush daemon.
func (l *Log) NewWorkerProbe() *Probe {
	tid := l.wal.NewTid()
	p := &Probe{log: l.wal, tid: tid, level: l.wal.Level(), worker: true}
	p.modKey, p.specVar = moduleKeys("")
	return p
}

// StartChecker constructs a checker over spec and runs it on a fresh
// verification goroutine reading this log from the beginning (the paper's
// online architecture, Section 4.2). The returned function blocks until the
// log is closed and drained (or the fail-fast checker stops) and yields the
// final report.
func (l *Log) StartChecker(spec Spec, opts ...Option) (wait func() *Report, err error) {
	c, err := core.New(spec, opts...)
	if err != nil {
		return nil, err
	}
	done := make(chan *Report, 1)
	cur := l.wal.Reader()
	go func() { done <- c.Run(cur) }()
	return func() *Report { return <-done }, nil
}

// StartEntryChecker runs any streaming entry checker — notably the
// linearizability engine's (internal/linearize.NewChecker), which needs no
// commit annotations — on a fresh verification goroutine reading this log
// from the beginning. The returned function blocks until the log is closed
// and drained and yields the final report.
func (l *Log) StartEntryChecker(c EntryChecker) (wait func() *Report) {
	done := make(chan *Report, 1)
	cur := l.wal.Reader()
	go func() { done <- core.RunChecker(c, cur) }()
	return func() *Report { return <-done }
}

// StartMultiChecker runs a modular (Fig. 10) check online: one Checker per
// module on its own goroutine, all fed from a single cursor over this log
// by a router goroutine. The returned function blocks until the log is
// closed and every module has drained, and yields the per-module reports.
func (l *Log) StartMultiChecker(mods ...Module) (wait func() []ModuleReport, err error) {
	m, err := core.NewMulti(mods...)
	if err != nil {
		return nil, err
	}
	done := make(chan []ModuleReport, 1)
	cur := l.wal.Reader()
	go func() { done <- m.Run(cur) }()
	return func() []ModuleReport { return <-done }, nil
}

// Probe performs the logging for one thread. All methods are safe to call on
// a nil probe (no-ops), so implementations can run uninstrumented; they are
// not safe for concurrent use by multiple goroutines.
type Probe struct {
	log    *wal.Log
	tid    int32
	level  Level
	worker bool

	// module/mod tag every logged entry for modular checking (Scoped).
	module string
	mod    event.Sym

	// inv is the reusable invocation record: well-formed runs have at most
	// one open invocation per thread, so Call hands out the same record
	// every time instead of allocating.
	inv Invocation

	// child memoizes the most recent Scoped derivation.
	child *Probe

	// yield, when set, is invoked at the start of every probe action,
	// before anything is appended to the log, carrying the action's
	// declared Access. It is the seam a controlled scheduler
	// (internal/sched) rides: each instrumentation boundary becomes a
	// scheduling point, with no extra annotation burden on
	// implementations, and the access lets the DPOR strategy decide which
	// step reorderings are worth exploring. nil (the default) costs one
	// predictable branch.
	yield func(event.Access)

	// modKey and specVar cache the module-scope keys every declared
	// access of this probe carries.
	modKey  uint64
	specVar uint64
}

// moduleKeys derives the access-module keys for a module tag.
func moduleKeys(module string) (modKey, specVar uint64) {
	return event.VarKey("mod", module), event.VarKey("spec", module)
}

// SetYield installs fn as the probe's scheduling hook, called at the start
// of every probe action before the corresponding log append. Controlled
// runs pass the owning sched.Task's Yield; nil removes the hook. The hook
// propagates to probes already derived via Scoped and to future ones.
// Hooks installed this way see no access information; SetAccessYield is
// the DPOR-aware variant.
func (p *Probe) SetYield(fn func()) {
	if fn == nil {
		p.SetAccessYield(nil)
		return
	}
	p.SetAccessYield(func(event.Access) { fn() })
}

// SetAccessYield installs fn as the probe's scheduling hook with access
// information: every probe action (and every annotated yield) declares
// what it is about to touch, so a DPOR scheduler can build the dependency
// relation online. nil removes the hook. The hook propagates to probes
// already derived via Scoped and to future ones.
func (p *Probe) SetAccessYield(fn func(event.Access)) {
	if p == nil {
		return
	}
	p.yield = fn
	if p.child != nil {
		p.child.SetAccessYield(fn)
	}
}

// Yield is an explicit scheduling point for instrumented implementations
// whose interesting race windows contain no probe action (e.g. between two
// unsynchronized memory writes). Under a controlled scheduler it parks the
// thread; otherwise it is a no-op, so correct builds pay nothing. The
// access is opaque — conservatively dependent with every non-local step;
// implementations that know what they touch should use YieldLoad,
// YieldStore or YieldRMW instead, which DPOR can commute.
func (p *Probe) Yield() {
	if p != nil && p.yield != nil {
		p.yield(event.Access{Kind: event.AccessOpaque})
	}
}

// YieldLoad is a scheduling point annotating an atomic load (including
// load-acquire) of the named shared variable. Two loads of the same
// variable are independent; a load conflicts only with stores and RMWs of
// the same (module, name) variable.
func (p *Probe) YieldLoad(name string) {
	if p != nil && p.yield != nil {
		p.yield(event.Access{Kind: event.AccessRead, Var: event.VarKey("m", p.module, name)})
	}
}

// YieldSpinLoad is YieldLoad for the retry iterations of a spin-wait
// (seqlock readers awaiting an even sequence, writers awaiting the current
// writer): it additionally tells a cooperative scheduler that re-granting
// this task cannot make progress until another task changes the awaited
// state, so the scheduler prefers every non-spinning task first and the
// loop cannot livelock a controlled run. The first iteration of a wait
// loop should use plain YieldLoad — it is an ordinary read that must
// interleave normally.
func (p *Probe) YieldSpinLoad(name string) {
	if p != nil && p.yield != nil {
		p.yield(event.Access{Kind: event.AccessRead, Var: event.VarKey("m", p.module, name), Spin: true})
	}
}

// YieldStore is a scheduling point annotating an atomic store (including
// store-release) to the named shared variable.
func (p *Probe) YieldStore(name string) {
	if p != nil && p.yield != nil {
		p.yield(event.Access{Kind: event.AccessWrite, Var: event.VarKey("m", p.module, name)})
	}
}

// YieldRMW is a scheduling point annotating an atomic read-modify-write
// (CAS, fetch-add, swap) of the named shared variable. Classified as a
// write: it conflicts with every other access of the variable except
// nothing — like a store, plus it also reads, which a store's conflict
// set already covers.
func (p *Probe) YieldRMW(name string) {
	if p != nil && p.yield != nil {
		p.yield(event.Access{Kind: event.AccessWrite, Var: event.VarKey("m", p.module, name)})
	}
}

// sched runs the scheduling hook at a probe action boundary.
func (p *Probe) sched(a event.Access) {
	if p.yield != nil {
		p.yield(a)
	}
}

// specRead is the access of a logged call/return action: a read of the
// module's spec-state trajectory (observer windows are judged against the
// spec states between call and return, so these log positions matter
// relative to commits but commute with each other).
func (p *Probe) specRead() event.Access {
	return event.Access{Kind: event.AccessRead, Module: p.modKey, Var: p.specVar}
}

// commitAccess is the access of a logged commit (or commit-block marker):
// it advances the module's spec state and, in view mode, digests the whole
// replica, so it conflicts with every logged action of the module.
func (p *Probe) commitAccess() event.Access {
	return event.Access{Kind: event.AccessCommit, Module: p.modKey}
}

// writeAccess is the access of a logged write action, keyed by operation
// and first integer argument when present (finer keys commute more; a
// missing or non-integer argument falls back to the coarser per-op key).
func (p *Probe) writeAccess(op string, args []Value) event.Access {
	key := []string{"w", p.module, op}
	if len(args) > 0 {
		if n, ok := event.Int(args[0]); ok {
			key = append(key, strconv.Itoa(n))
		}
	}
	return event.Access{Kind: event.AccessWrite, Module: p.modKey, Var: event.VarKey(key...)}
}

// Tid returns the probe's thread identifier (0 for a nil probe).
func (p *Probe) Tid() int32 {
	if p == nil {
		return 0
	}
	return p.tid
}

// Scoped returns a probe for the same thread whose entries carry the given
// module tag, for modular per-structure checking (Section 7.2, Fig. 10): a
// layered implementation logs each layer's actions under that layer's
// module, and a Multi checker routes each module's entries to its own
// refinement check. The tag is absolute, not nested — Scoped from an
// already-scoped probe switches the module. The derivation is memoized, so
// calling it on every operation is free after the first.
func (p *Probe) Scoped(module string) *Probe {
	if p == nil || p.module == module {
		return p
	}
	if p.child == nil || p.child.module != module {
		p.child = &Probe{log: p.log, tid: p.tid, level: p.level, worker: p.worker,
			module: module, mod: event.InternSym(module), yield: p.yield}
		p.child.modKey, p.child.specVar = moduleKeys(module)
	}
	return p.child
}

// active reports whether the probe records anything at all.
func (p *Probe) active() bool { return p != nil && p.level != LevelOff }

// viewActive reports whether the probe records view-level actions.
func (p *Probe) viewActive() bool { return p != nil && p.level == LevelView }

// Call records the invocation of a public method and returns the invocation
// handle used to record its commit and return. Arguments that alias mutable
// buffers must be snapshotted by the caller (see event.CloneBytes): the log
// records observed values.
func (p *Probe) Call(method string, args ...Value) *Invocation {
	if p == nil {
		return nil
	}
	p.sched(p.specRead())
	if !p.active() {
		return nil
	}
	sym := event.InternSym(method)
	p.log.Append(event.Entry{Tid: p.tid, Kind: event.KindCall, Method: method, Sym: sym,
		Args: args, Worker: p.worker, Module: p.module, Mod: p.mod})
	p.inv = Invocation{p: p, method: method, sym: sym}
	return &p.inv
}

// Write records an update to a shared variable in the support of viewI.
// Inside a commit block the checker buffers it and applies it atomically at
// the block's commit; outside, it is applied to the replica immediately.
// No-op below LevelView.
func (p *Probe) Write(op string, args ...Value) {
	if p == nil {
		return
	}
	p.sched(p.writeAccess(op, args))
	if !p.viewActive() {
		return
	}
	p.log.Append(event.Entry{Tid: p.tid, Kind: event.KindWrite, Method: op, Sym: event.InternSym(op),
		Args: args, Worker: p.worker, Module: p.module, Mod: p.mod})
}

// Invocation records the actions of one method execution. A nil *Invocation
// (from an inactive probe) is a valid no-op receiver. The record is owned
// by its probe and reused across calls; holding it past the method's Return
// is a bug (as is any overlap of method executions on one thread).
type Invocation struct {
	p      *Probe
	method string
	sym    event.Sym
}

// Commit records this execution's unique commit action (Section 4.1). label
// distinguishes the commit points of a method with several exit paths, for
// diagnostics.
func (inv *Invocation) Commit(label string) {
	if inv == nil {
		return
	}
	inv.p.sched(inv.p.commitAccess())
	inv.p.log.Append(event.Entry{
		Tid: inv.p.tid, Kind: event.KindCommit, Method: inv.method, Sym: inv.sym,
		Label: label, Worker: inv.p.worker, Module: inv.p.module, Mod: inv.p.mod,
	})
}

// CommitFused records the commit action without a scheduling point. It is
// for lock-free methods, where the commit must stay in the same scheduler
// step as the atomic operation that linearizes it: a controlled scheduler
// parking between a successful CAS and the commit append would let another
// method's effect commit first and log an order the implementation never
// took. The caller places a bare Yield (opaque) immediately before the
// linearizing operation, so the fused step — atomic op plus commit append
// — is declared conservatively dependent with everything; lock-based
// methods should keep using Commit, whose scheduling point is protected by
// the lock they hold.
func (inv *Invocation) CommitFused(label string) {
	if inv == nil {
		return
	}
	inv.p.log.Append(event.Entry{
		Tid: inv.p.tid, Kind: event.KindCommit, Method: inv.method, Sym: inv.sym,
		Label: label, Worker: inv.p.worker, Module: inv.p.module, Mod: inv.p.mod,
	})
}

// CommitWrite records the commit action together with the single write
// performed atomically with it — the common shape in which the commit is
// "the write that makes the new abstract state visible". Below LevelView the
// write payload is dropped and only the commit is recorded.
func (inv *Invocation) CommitWrite(label, op string, args ...Value) {
	if inv == nil {
		return
	}
	inv.p.sched(inv.p.commitAccess())
	e := event.Entry{
		Tid: inv.p.tid, Kind: event.KindCommit, Method: inv.method, Sym: inv.sym,
		Label: label, Worker: inv.p.worker, Module: inv.p.module, Mod: inv.p.mod,
	}
	if inv.p.viewActive() {
		e.WOp = op
		e.WSym = event.InternSym(op)
		e.WArgs = args
	}
	inv.p.log.Append(e)
}

// BeginCommitBlock marks the start of this execution's commit block
// (Section 5.2). The caller must guarantee (by inspection, static analysis
// or a runtime atomicity checker) that the block executes atomically; the
// view replay relies on it. No-op below LevelView.
func (inv *Invocation) BeginCommitBlock() {
	if inv == nil {
		return
	}
	inv.p.sched(inv.p.commitAccess())
	if !inv.p.viewActive() {
		return
	}
	inv.p.log.Append(event.Entry{Tid: inv.p.tid, Kind: event.KindBeginBlock, Worker: inv.p.worker,
		Module: inv.p.module, Mod: inv.p.mod})
}

// EndCommitBlock marks the end of the commit block.
func (inv *Invocation) EndCommitBlock() {
	if inv == nil {
		return
	}
	inv.p.sched(inv.p.commitAccess())
	if !inv.p.viewActive() {
		return
	}
	inv.p.log.Append(event.Entry{Tid: inv.p.tid, Kind: event.KindEndBlock, Worker: inv.p.worker,
		Module: inv.p.module, Mod: inv.p.mod})
}

// Return records the method's return action and value, closing the
// invocation.
func (inv *Invocation) Return(ret Value) {
	if inv == nil {
		return
	}
	inv.p.sched(inv.p.specRead())
	inv.p.log.Append(event.Entry{
		Tid: inv.p.tid, Kind: event.KindReturn, Method: inv.method, Sym: inv.sym,
		Ret: ret, Worker: inv.p.worker, Module: inv.p.module, Mod: inv.p.mod,
	})
}
