// Package event defines the action vocabulary of the VYRD log.
//
// A run of an instrumented implementation is recorded as a totally ordered
// sequence of entries. Call, return and commit actions (Section 3 and 4 of
// the paper) are required for I/O refinement checking; shared-variable write
// actions and commit-block delimiters (Section 5) are additionally required
// for view refinement checking.
package event

import "fmt"

// Kind identifies the action class an Entry records.
type Kind uint8

const (
	// KindCall records the invocation of a public method by a thread,
	// together with the actual arguments.
	KindCall Kind = iota + 1
	// KindReturn records the return of the matching open invocation,
	// together with the returned value.
	KindReturn
	// KindCommit records the unique commit action of a mutator method
	// execution. The order of commit actions induces the witness
	// interleaving used to drive the specification.
	KindCommit
	// KindWrite records an update to a shared variable in the support of
	// viewI, at either fine (single variable) or coarse (data-structure
	// task) granularity. Replayed into the replica by a core.Replayer.
	KindWrite
	// KindBeginBlock marks the start of a commit block (Section 5.2):
	// writes up to the matching KindEndBlock are treated as atomic at the
	// block's commit action when reconstructing the equivalent trace t'.
	KindBeginBlock
	// KindEndBlock marks the end of a commit block.
	KindEndBlock
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCall:
		return "call"
	case KindReturn:
		return "return"
	case KindCommit:
		return "commit"
	case KindWrite:
		return "write"
	case KindBeginBlock:
		return "begin-block"
	case KindEndBlock:
		return "end-block"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is a logged argument, return value or written datum. In-memory
// checking accepts any concrete type; a log that is persisted or shipped
// (AttachSink, AttachRemote) encodes only the closed vocabulary nil, int,
// int64, string, bool, []byte, []int, []string and Exceptional, and refuses
// anything else at encode time with an error naming the type (binary.go).
type Value = any

// Entry is one logged action. Seq is assigned by the log at append time and
// gives the total order of the execution's visible actions.
type Entry struct {
	Seq    int64   // position in the total order, starting at 1
	Tid    int32   // identifier of the acting thread
	Kind   Kind    // action class
	Method string  // method name (call/return/commit) or write-op name (write)
	Args   []Value // call arguments, or write-operation operands
	Ret    Value   // return value (return entries only)
	Label  string  // commit-point label, for diagnostics (commit entries)
	Worker bool    // true for internal data-structure worker threads (Tid_ds)

	// WOp/WArgs, when WOp is non-empty on a commit entry, record the single
	// shared-state update performed atomically with the commit action (the
	// common "commit action is a write" shape of Section 4.1). The checker
	// applies it to the replica at the commit's position in the witness
	// interleaving.
	WOp   string
	WArgs []Value

	// Module tags the entry with the verified module that produced it, for
	// modular per-structure checking (Section 7.2, Fig. 10): one execution
	// log, one refinement checker per module. Empty outside modular runs.
	Module string

	// Sym, WSym and Mod are the process-local interned ids of Method, WOp
	// and Module (see InternSym). They are assigned at log time by probes
	// and restored by decoders, and are NEVER persisted: ids from another
	// process would be meaningless here. Code receiving entries from an
	// unknown source calls Intern to normalize them.
	Sym  Sym
	WSym Sym
	Mod  Sym
}

// Intern populates the symbol ids from the string fields. It is idempotent
// and cheap once the names are known to the interner.
func (e *Entry) Intern() {
	if e.Sym == 0 && e.Method != "" {
		e.Sym = InternSym(e.Method)
	}
	if e.WSym == 0 && e.WOp != "" {
		e.WSym = InternSym(e.WOp)
	}
	if e.Mod == 0 && e.Module != "" {
		e.Mod = InternSym(e.Module)
	}
}

// String renders the entry for diagnostics.
func (e Entry) String() string {
	switch e.Kind {
	case KindCall:
		return fmt.Sprintf("#%d t%d call %s%v", e.Seq, e.Tid, e.Method, e.Args)
	case KindReturn:
		return fmt.Sprintf("#%d t%d return %s -> %v", e.Seq, e.Tid, e.Method, e.Ret)
	case KindCommit:
		if e.Label != "" {
			return fmt.Sprintf("#%d t%d commit %s [%s]", e.Seq, e.Tid, e.Method, e.Label)
		}
		return fmt.Sprintf("#%d t%d commit %s", e.Seq, e.Tid, e.Method)
	case KindWrite:
		return fmt.Sprintf("#%d t%d write %s%v", e.Seq, e.Tid, e.Method, e.Args)
	case KindBeginBlock, KindEndBlock:
		return fmt.Sprintf("#%d t%d %s", e.Seq, e.Tid, e.Kind)
	}
	return fmt.Sprintf("#%d t%d %s %s", e.Seq, e.Tid, e.Kind, e.Method)
}

// Signature is the externally visible summary of one method execution:
// thread, method, arguments and return value (Section 3.2).
type Signature struct {
	Tid    int32
	Method string
	Args   []Value
	Ret    Value
}

// String renders the signature for diagnostics.
func (s Signature) String() string {
	return fmt.Sprintf("t%d %s%v -> %v", s.Tid, s.Method, s.Args, s.Ret)
}

// Exceptional models the exceptional termination of a method as a special
// return value (Section 3: "exceptional terminations for methods are modeled
// by special return values"). Specifications decide per method whether an
// exceptional termination is permitted; permissive specs are exactly what
// distinguishes refinement from atomicity (Section 1).
type Exceptional struct {
	// Reason describes the failure, e.g. "index out of range".
	Reason string
}

// Error makes Exceptional usable as an error value inside implementations.
func (e Exceptional) Error() string { return "exceptional: " + e.Reason }

// IsExceptional reports whether a logged return value records an
// exceptional termination.
func IsExceptional(v Value) bool {
	_, ok := v.(Exceptional)
	return ok
}
