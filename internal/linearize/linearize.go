// Package linearize checks linearizability of recorded executions from
// call and return actions alone — no commit annotations.
//
// Check is the engine: Lowe-style
// just-in-time linearization with undo (linearize a pending call, recurse,
// undo on failure), memoization on (linearized-set, state fingerprint) to
// prune revisited configurations, and P-compositionality — independent
// keys or elements are partitioned and their sub-histories checked
// separately, with the per-component witnesses merged back into one global
// linearization. A streaming Checker wraps the engine behind the
// core.EntryChecker surface so linearizability rides the same log
// pipeline, Multi fan-out and remote protocol as refinement, with an
// interval-bounded frontier fast path for fixed-domain specifications
// that verifies segment by segment at quiescent cuts.
//
// The engine has no specifications of its own. What it searches over is
// the executable specification the refinement checker runs (internal/spec,
// the paper's method-atomic transition system of Section 3.2), frozen: For
// derives a Spec from any spec.Linearizable, and the one Model in this
// package, frozen, steps a private copy of it. A data type is specified
// once, so the two verdict engines cannot disagree about its semantics.
//
// The two verdicts relate but differ: a linearizability failure on a
// complete log implies an I/O-refinement failure on the same log, while
// refinement can additionally reject logs whose commit annotations pin an
// invalid witness or are missing altogether (ViolationInstrumentation).
// The differential harness in internal/bench holds the two checkers
// against each other on every bench subject.
package linearize

import (
	"fmt"
	"sort"

	"repro/internal/event"
)

// Op is one method execution extracted from a trace.
type Op struct {
	Tid     int32
	Method  string
	Args    []event.Value
	Ret     event.Value
	CallSeq int64
	RetSeq  int64
	Mutator bool
}

// Model is a purely functional specification state: Step returns the
// successor state for a mutator (or nil if the transition is impossible)
// and leaves the receiver as it was, and Check validates an observer at
// the current state. Fingerprint keys the memoization table; states with
// equal fingerprints must be equal. The engine, the frontier and the
// brute-force oracle are written against this interface; frozen (spec.go)
// is its one implementation.
type Model interface {
	Step(op Op) (Model, bool)
	Check(op Op) bool
	Fingerprint() uint64
}

// Extract pulls the completed method executions out of a recorded trace,
// classifying mutators with the given predicate. Executions the log ends
// in the middle of are dropped: the verdict applies to the completed
// executions, as both checkers assume complete histories. A call on a
// thread that already has one open replaces it (a torn log can lose
// returns), so arbitrary entry streams extract without panicking.
func Extract(entries []event.Entry, isMutator func(string) bool) []Op {
	open := make(map[int32]*Op)
	var ops []Op
	for _, e := range entries {
		switch e.Kind {
		case event.KindCall:
			open[e.Tid] = &Op{
				Tid: e.Tid, Method: e.Method, Args: e.Args,
				CallSeq: e.Seq, Mutator: isMutator(e.Method),
			}
		case event.KindReturn:
			if op := open[e.Tid]; op != nil {
				op.Ret = e.Ret
				op.RetSeq = e.Seq
				ops = append(ops, *op)
				delete(open, e.Tid)
			}
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].CallSeq < ops[j].CallSeq })
	return ops
}

// Result reports the outcome of a linearizability search.
type Result struct {
	// Linearizable is true when some valid serialization exists.
	Linearizable bool
	// Witness holds one valid order (indices into the op list) when found.
	Witness []int
	// StatesExplored counts search configurations visited — the cost the
	// paper's commit actions avoid.
	StatesExplored int64
	// MaxSegment is the widest overlap searched: for the brute checker the
	// widest quiescent segment, for the engine the maximum number of
	// concurrently open executions.
	MaxSegment int
	// Components is the number of independent sub-histories the engine's
	// P-compositional partition produced (1 when partitioning is off or
	// impossible; 0 for the brute checker).
	Components int
	// Aborted is set when the search hit the state budget (or a segment
	// exceeded the representable width) before deciding. The verdict is
	// unknown when set.
	Aborted bool
	// FailSeq is the log sequence number of the latest return in the
	// component that refused to linearize (0 unless Linearizable is false).
	FailSeq int64
}

// String renders the result.
func (r Result) String() string {
	switch {
	case r.Aborted:
		return fmt.Sprintf("aborted after %d states (budget or width exhausted; widest overlap %d)",
			r.StatesExplored, r.MaxSegment)
	case r.Linearizable:
		return fmt.Sprintf("linearizable (%d states explored; widest overlap %d)", r.StatesExplored, r.MaxSegment)
	default:
		return fmt.Sprintf("NOT linearizable (%d states explored; widest overlap %d)", r.StatesExplored, r.MaxSegment)
	}
}

// maxOverlapWidth computes the maximum number of method executions open at
// once — the quantity that drives every linearizability search.
func maxOverlapWidth(ops []Op) int {
	type ev struct {
		seq  int64
		open bool
	}
	evs := make([]ev, 0, 2*len(ops))
	for _, op := range ops {
		evs = append(evs, ev{op.CallSeq, true}, ev{op.RetSeq, false})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].seq < evs[j].seq })
	width, max := 0, 0
	for _, e := range evs {
		if e.open {
			width++
			if width > max {
				max = width
			}
		} else {
			width--
		}
	}
	return max
}
