// Package vyrd is the public API of the VYRD runtime refinement checker
// (Elmas, Tasiran, Qadeer: "VYRD: VerifYing Concurrent Programs by Runtime
// Refinement-Violation Detection", PLDI 2005).
//
// VYRD checks, at runtime, that a concurrently-accessed data structure
// implementation refines a method-atomic executable specification. Use is in
// two phases:
//
//  1. Instrument the implementation. Create a Log, give each goroutine its
//     own Probe, and bracket every public method execution with
//     Probe.Call/Invocation.Return. Annotate exactly one commit action per
//     mutator execution (Invocation.Commit or Invocation.CommitWrite), and,
//     for view refinement, log the writes in the support of viewI
//     (Probe.Write inside Invocation.BeginCommitBlock/EndCommitBlock where
//     a group of writes must be treated as atomic).
//  2. Check the log. Construct a Checker over a Spec (and, for view
//     refinement, a Replayer) and either run it online on a verification
//     goroutine (Checker.Run on a Log cursor) or offline over a snapshot or
//     persisted file (Check / CheckEntries).
//
// A minimal round trip:
//
//	log := vyrd.NewLog(vyrd.LevelView)
//	p := log.NewProbe()          // one per goroutine
//	inv := p.Call("Insert", x)
//	// ... implementation work ...
//	inv.CommitWrite("inserted", "set-valid", slot)  // the commit action
//	inv.Return(true)
//	log.Close()
//	report, err := vyrd.Check(log, spec, vyrd.WithReplayer(replayer))
//
// Probes are nil-safe and level-aware: a nil *Probe, or a log constructed
// with LevelOff, makes every instrumentation call a no-op, so the same
// implementation code serves both instrumented and bare execution (the
// "program alone" baselines of the paper's Tables 2 and 3).
package vyrd

// The committed testdata/fig6.log artifact pins the persisted log format;
// regenerate it whenever the wire shape of event.Entry (and so
// LogFormatVersion) changes. The corrupted variant pins crash recovery's
// report byte-for-byte (fig6_v2.log and fig6_v1_gob.log are frozen
// old-version artifacts, never regenerated: the first pins that version 2
// still decodes, the second that version 1 is refused).
//go:generate go run gen_fig6.go -o testdata/fig6.log
//go:generate go run gen_fig6.go -o testdata/fig6_v3_corrupt.log -corrupt-at 120 -corrupt-xor 0x41
//go:generate go run gen_fig6.go -nocommit -o testdata/fig6_nocommit.log

import (
	"io"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/view"
	"repro/internal/wal"
)

// Re-exported core vocabulary. These are aliases, so values flow freely
// between the facade and the internal packages.
type (
	// Spec is an executable, method-atomic, deterministic specification.
	Spec = core.Spec
	// Replayer reconstructs implementation state from logged writes.
	Replayer = core.Replayer
	// Checker is the refinement verification engine.
	Checker = core.Checker
	// EntryChecker is the minimal streaming-verdict surface every engine
	// implements (the refinement Checker and the linearizability checker);
	// Log.StartEntryChecker and the modular fan-out drive it.
	EntryChecker = core.EntryChecker
	// Report summarizes one checking run.
	Report = core.Report
	// Violation describes one detected refinement violation.
	Violation = core.Violation
	// ViolationKind classifies a violation.
	ViolationKind = core.ViolationKind
	// Mode selects the refinement notion (ModeIO or ModeView).
	Mode = core.Mode
	// Option configures a Checker.
	Option = core.Option
	// Entry is one logged action.
	Entry = event.Entry
	// Value is a logged argument, return value or written datum.
	Value = event.Value
	// Access classifies what one scheduling step touches, for DPOR
	// schedule exploration (see Probe.SetAccessYield).
	Access = event.Access
	// Exceptional models exceptional method termination as a return value.
	Exceptional = event.Exceptional
	// Level selects how much of the execution is recorded.
	Level = wal.Level
	// Table is a view digest table (viewI / viewS).
	Table = view.Table
	// Module is one verified module of a modular (Fig. 10) check.
	Module = core.Module
	// ModuleReport pairs a module's name with its checking report.
	ModuleReport = core.ModuleReport
)

// Violation kinds.
const (
	ViolationIO              = core.ViolationIO
	ViolationObserver        = core.ViolationObserver
	ViolationView            = core.ViolationView
	ViolationInvariant       = core.ViolationInvariant
	ViolationInstrumentation = core.ViolationInstrumentation
	// ViolationLinearizability is reported by the linearizability engine
	// (internal/linearize): no serialization of the completed executions
	// matches their return values.
	ViolationLinearizability = core.ViolationLinearizability
	// ViolationTemporal is reported by the temporal engine (internal/ltl):
	// an LTL3 property over the log collapsed to false.
	ViolationTemporal = core.ViolationTemporal
)

// Refinement modes.
const (
	ModeIO   = core.ModeIO
	ModeView = core.ModeView
	// ModeLinearize labels reports of the linearizability engine; the
	// refinement Checker itself rejects it.
	ModeLinearize = core.ModeLinearize
	// ModeLTL labels reports of the temporal engine; the refinement
	// Checker itself rejects it.
	ModeLTL = core.ModeLTL
)

// Logging levels.
const (
	LevelOff  = wal.LevelOff
	LevelIO   = wal.LevelIO
	LevelView = wal.LevelView
)

// Checker options.
var (
	WithMode              = core.WithMode
	WithReplayer          = core.WithReplayer
	WithFailFast          = core.WithFailFast
	WithMaxViolations     = core.WithMaxViolations
	WithDiagnostics       = core.WithDiagnostics
	WithQuiescentViewOnly = core.WithQuiescentViewOnly
)

// NewTable returns an empty view digest table.
func NewTable() *Table { return view.NewTable() }

// NewChecker constructs a refinement checker over spec.
func NewChecker(spec Spec, opts ...Option) (*Checker, error) {
	return core.New(spec, opts...)
}

// Check verifies a quiesced or closed log offline and returns the report.
func Check(l *Log, spec Spec, opts ...Option) (*Report, error) {
	return core.CheckEntries(l.wal.Snapshot(), spec, opts...)
}

// CheckEntries verifies a recorded entry sequence offline.
func CheckEntries(entries []Entry, spec Spec, opts ...Option) (*Report, error) {
	return core.CheckEntries(entries, spec, opts...)
}

// CheckEntriesMulti verifies a recorded entry sequence through the modular
// fan-out: one Checker per module, each fed the projection of the log its
// filter (by default, its module tag) selects, running concurrently.
func CheckEntriesMulti(entries []Entry, mods ...Module) ([]ModuleReport, error) {
	return core.CheckEntriesMulti(entries, mods...)
}

// CheckStream verifies a persisted log stream offline with a
// parallel decode pool feeding the sequential checker (workers <= 0 uses
// GOMAXPROCS).
func CheckStream(r io.Reader, workers int, spec Spec, opts ...Option) (*Report, error) {
	return core.CheckStream(r, workers, spec, opts...)
}

// ReadLog decodes a persisted log stream (written via Log.AttachSink; format
// versions 2 and 3). Anything else — including version-1 artifacts of the
// retired gob encoding — fails with ErrLogFormatMismatch.
func ReadLog(r io.Reader) ([]Entry, error) { return wal.ReadFile(r) }

// ReadLogParallel decodes a persisted log stream with a parallel
// decode pool, preserving log order (workers <= 0 uses GOMAXPROCS).
func ReadLogParallel(r io.Reader, workers int) ([]Entry, error) {
	return wal.ReadFileParallel(r, workers)
}

// RecoveryReport describes the outcome of recovering a torn log file.
type RecoveryReport = wal.RecoveryReport

// CrashFile is the file surface log recovery needs (read + truncate);
// *os.File satisfies it.
type CrashFile = wal.CrashFile

// RecoverLog scans a crashed producer's log file for its longest valid
// prefix, truncates the torn tail in place, and returns the recovered
// entries. The repaired file is a valid stream every reader accepts; the
// entries are a true prefix of the crashed run's history, so checking them
// (CheckEntries, or CheckStream over the repaired file) yields a verdict
// about the run up to the crash.
func RecoverLog(f CrashFile) ([]Entry, RecoveryReport, error) { return wal.Recover(f) }

// RecoverLogReader scans a log stream that cannot be repaired in place
// (stdin, a pipe): same report, no truncation.
func RecoverLogReader(r io.Reader) ([]Entry, RecoveryReport, error) {
	return wal.RecoverReader(r)
}

// WitnessEntry is one method execution positioned in the witness
// interleaving (Section 4.1's debugging view).
type WitnessEntry = core.WitnessEntry

// Witness extracts the witness interleaving of a recorded trace: the
// method executions serialized in commit-action order.
func Witness(entries []Entry) []WitnessEntry { return core.Witness(entries) }

// WriteWitness renders the witness interleaving next to the implementation
// trace spans — the paper's Section 4.1 workflow for debugging commit-point
// selection.
func WriteWitness(w io.Writer, entries []Entry) { core.WriteWitness(w, entries) }
