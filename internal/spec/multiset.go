package spec

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/view"
)

// Multiset is the executable specification of the paper's running example
// (Section 2): a multiset of integers with Insert, InsertPair, Delete and
// LookUp. Insert and InsertPair are allowed to terminate unsuccessfully
// under contention, in which case the multiset state must be unchanged;
// InsertPair must insert both elements or neither.
//
// Methods and return values:
//
//	Insert(x) -> bool        mutator; true adds one copy of x
//	InsertPair(x, y) -> bool mutator; true adds one copy of each of x and y
//	Delete(x) -> bool        mutator; true removes one copy (requires presence);
//	                         false (not found) is always permitted
//	LookUp(x) -> bool        observer; membership
//	Compress() -> nil        mutator pseudo-method; abstract no-op
//
// The view table is the state: keys are elements, values multiplicities.
type Multiset struct {
	table *view.Table
}

// spaceE is the view key family of multiset elements ("e:<element>"),
// shared by name with the multiset replayer.
var spaceE = view.NewSpace("e")

// NewMultiset returns an empty multiset specification.
func NewMultiset() *Multiset {
	s := &Multiset{}
	s.Reset()
	return s
}

// Reset implements core.Spec.
func (s *Multiset) Reset() { s.table = view.NewTable() }

// Clone implements Linearizable.
func (s *Multiset) Clone() Linearizable { return &Multiset{table: s.table.Clone()} }

// FixedDomain implements Linearizable.
func (s *Multiset) FixedDomain() bool { return true }

// Keys implements Linearizable: elements are independent, so a history
// partitions per element, with InsertPair bridging its two.
func (s *Multiset) Keys(method string, args []event.Value) ([]string, bool) {
	switch method {
	case "Insert", "Delete", "LookUp":
		return intKeys(args, 0)
	case "InsertPair":
		return intKeys(args, 0, 1)
	case MethodCompress:
		return nil, true
	}
	return nil, false
}

// View implements core.Spec. Keys are "e:<element>"; values are
// multiplicities.
func (s *Multiset) View() *view.Table { return s.table }

// IsMutator implements core.Spec.
func (s *Multiset) IsMutator(method string) bool {
	switch method {
	case "Insert", "InsertPair", "Delete", MethodCompress:
		return true
	case "LookUp":
		return false
	}
	// Unknown methods are treated as mutators so that they reach
	// ApplyMutator and are rejected there with a useful message.
	return true
}

func (s *Multiset) add(x, delta int) {
	n := s.Count(x) + delta
	if n <= 0 {
		s.table.DeleteInt(spaceE, int64(x))
		return
	}
	s.table.SetInt(spaceE, int64(x), int64(n))
}

// Count returns the multiplicity of x.
func (s *Multiset) Count(x int) int {
	n, _ := s.table.GetInt(spaceE, int64(x))
	return int(n)
}

// ApplyMutator implements core.Spec.
func (s *Multiset) ApplyMutator(method string, args []event.Value, ret event.Value) error {
	switch method {
	case "Insert":
		if len(args) != 1 {
			return errRet(method, args, ret, "expected one argument")
		}
		x, ok := event.Int(args[0])
		if !ok {
			return errRet(method, args, ret, "non-integer argument")
		}
		success, ok := retSuccess(ret)
		if !ok {
			return errRet(method, args, ret, "return value must be bool or exceptional")
		}
		if success {
			s.add(x, 1)
		}
		return nil

	case "InsertPair":
		if len(args) != 2 {
			return errRet(method, args, ret, "expected two arguments")
		}
		x, okx := event.Int(args[0])
		y, oky := event.Int(args[1])
		if !okx || !oky {
			return errRet(method, args, ret, "non-integer arguments")
		}
		success, ok := retSuccess(ret)
		if !ok {
			return errRet(method, args, ret, "return value must be bool or exceptional")
		}
		if success {
			s.add(x, 1)
			s.add(y, 1)
		}
		return nil

	case "Delete":
		if len(args) != 1 {
			return errRet(method, args, ret, "expected one argument")
		}
		x, ok := event.Int(args[0])
		if !ok {
			return errRet(method, args, ret, "non-integer argument")
		}
		removed, ok := ret.(bool)
		if !ok {
			return errRet(method, args, ret, "return value must be bool")
		}
		// Delete(x) -> true requires x to be present. Delete(x) -> false is
		// always permitted: a scan-based implementation may correctly miss
		// an element inserted behind its scan front, and the specification
		// deliberately models that contention outcome (Section 1 of the
		// paper: refinement admits specifications permissive enough for
		// concurrent executions where atomicity is too stringent).
		if removed {
			if s.Count(x) == 0 {
				return errRet(method, args, ret, "claims removal but element is absent in the witness interleaving")
			}
			s.add(x, -1)
		}
		return nil

	case MethodCompress:
		if ret != nil {
			return errRet(method, args, ret, "Compress returns nothing")
		}
		return nil
	}
	return fmt.Errorf("unknown mutator %q", method)
}

// CheckObserver implements core.Spec.
func (s *Multiset) CheckObserver(method string, args []event.Value, ret event.Value) bool {
	if method != "LookUp" || len(args) != 1 {
		return false
	}
	x, ok := event.Int(args[0])
	if !ok {
		return false
	}
	found, ok := ret.(bool)
	if !ok {
		return false
	}
	return found == (s.Count(x) > 0)
}
