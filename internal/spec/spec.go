// Package spec provides the executable specifications used throughout the
// repository: method-atomic, deterministic state transition systems in the
// sense of Section 3.2 of the paper. Each specification validates observed
// return values (ApplyMutator/CheckObserver) and maintains a live viewS
// table for view refinement.
//
// There is one specification per data type, and every verdict engine reads
// it: the refinement checker drives it in place, and the linearizability
// engine searches over frozen copies of it (Linearizable). Where the view
// table already holds the whole abstract state (Multiset, KV, Store) the
// table is the state — the specification keeps no second copy of the
// contents and reads them back from the view.
//
// Specifications are deliberately permissive where the paper's notion of
// refinement demands it (Section 1): operations that may fail under
// resource contention accept an unsuccessful return value with the state
// left unchanged, which plain atomicity checking cannot express.
package spec

import (
	"fmt"
	"strconv"

	"repro/internal/event"
	"repro/internal/view"
)

// Linearizable is a specification the linearizability engine can search
// over: internal/linearize derives its functional model from these
// methods, so a data type is specified once. The six types that bench
// subjects check for linearizability implement it.
type Linearizable interface {
	// The core.Spec methods, spelled out because internal/core's tests
	// import this package.
	ApplyMutator(method string, args []event.Value, ret event.Value) error
	CheckObserver(method string, args []event.Value, ret event.Value) bool
	IsMutator(method string) bool
	View() *view.Table
	Reset()

	// Clone returns an independent copy of the current state: mutating
	// either afterwards leaves the other's view, observers and clones
	// unchanged. The engine never mutates a copy it has published, and
	// shares published copies across goroutines — which is sound because
	// CheckObserver and View().Hash() write nothing.
	Clone() Linearizable

	// Keys returns the keys or elements a method execution touches, for
	// P-compositional partitioning. ok=false marks a global operation: its
	// presence disables partitioning for the whole history (an
	// order-sensitive type returns it for every method). An empty key set
	// with ok=true marks a state-independent operation (a daemon's
	// Compress), checked as its own singleton component.
	Keys(method string, args []event.Value) (keys []string, ok bool)

	// FixedDomain reports that the reachable state space is small (maps
	// over a bounded key domain with bounded values, in practice), so the
	// streaming checker can verify interval by interval at quiescent cuts,
	// carrying the reachable state frontier, instead of buffering the
	// history for one search at the end.
	FixedDomain() bool
}

// MethodCompress is the pseudo-method under which internal maintenance
// threads (compression, flushing, reclaiming) run. Its specification action
// is a no-op: maintenance must not change the abstract state, and view
// refinement checks exactly that at each of its commits (Section 7.2.3).
const MethodCompress = "Compress"

// errRet builds the standard "return value not permitted" error.
func errRet(method string, args []event.Value, ret event.Value, why string) error {
	return fmt.Errorf("%s%v -> %v: %s", method, args, ret, why)
}

// retSuccess interprets a mutator return value as success/failure, treating
// an Exceptional value as failure (Section 3 models exceptional termination
// as a special return value).
func retSuccess(ret event.Value) (success, ok bool) {
	if event.IsExceptional(ret) {
		return false, true
	}
	b, ok := ret.(bool)
	return b, ok
}

// itoa is the canonical rendering of integer keys in view tables.
func itoa(n int) string { return strconv.Itoa(n) }

// intKeys renders the integer arguments at the given positions as
// partition keys; ok=false when one is missing or not an integer, which
// makes a malformed operation global rather than mis-partitioned.
func intKeys(args []event.Value, positions ...int) ([]string, bool) {
	keys := make([]string, len(positions))
	for i, pos := range positions {
		if pos >= len(args) {
			return nil, false
		}
		x, ok := event.Int(args[pos])
		if !ok {
			return nil, false
		}
		keys[i] = itoa(x)
	}
	return keys, true
}
