package spec

import (
	"fmt"
	"slices"

	"repro/internal/event"
	"repro/internal/view"
)

// Vector is the executable specification of the java.util.Vector subset the
// paper checks (Section 7.4.1): a growable sequence of integers.
//
// Methods and return values:
//
//	AddElement(x) -> nil          mutator; appends
//	InsertElementAt(x, i) -> nil | Exceptional   mutator; exceptional iff i > size
//	RemoveElementAt(i) -> nil | Exceptional      mutator; exceptional iff i >= size
//	RemoveAllElements() -> nil    mutator; clears
//	TrimToSize() -> nil           mutator; abstract no-op (storage compaction)
//	Size() -> int                 observer
//	ElementAt(i) -> int | Exceptional            observer; exceptional iff i >= size
//	LastIndexOf(x) -> int         observer; last index of x, -1 when absent.
//	                              An exceptional termination is NOT permitted:
//	                              this is exactly how the paper's known
//	                              "taking length non-atomically" bug manifests.
type Vector struct {
	elems []int
	table *view.Table
}

// spaceI is the view key family of vector indices ("i:<index>"), shared by
// name with the vector replayer. The view is exactly the index-to-element
// map: the indices present are 0..len-1, so the length needs no entry of
// its own.
var spaceI = view.NewSpace("i")

// NewVector returns an empty vector specification.
func NewVector() *Vector {
	s := &Vector{}
	s.Reset()
	return s
}

// Reset implements core.Spec.
func (s *Vector) Reset() {
	s.elems = nil
	s.table = view.NewTable()
}

// Clone implements Linearizable.
func (s *Vector) Clone() Linearizable {
	return &Vector{elems: slices.Clone(s.elems), table: s.table.Clone()}
}

// FixedDomain implements Linearizable: a sequence over k overlapping
// appends has a factorial reachable state space.
func (s *Vector) FixedDomain() bool { return false }

// Keys implements Linearizable: every operation is global, because the
// sequence is order-sensitive and an insertion shifts every later index.
func (s *Vector) Keys(string, []event.Value) ([]string, bool) { return nil, false }

// View implements core.Spec. Keys are "i:<index>"; values are elements.
func (s *Vector) View() *view.Table { return s.table }

// IsMutator implements core.Spec.
func (s *Vector) IsMutator(method string) bool {
	switch method {
	case "Size", "ElementAt", "LastIndexOf":
		return false
	}
	return true
}

// Len returns the current length.
func (s *Vector) Len() int { return len(s.elems) }

// refreshFrom rewrites the view entries of indices i and above after a
// shift; oldLen is the length before the operation, whose surplus indices
// are dropped.
func (s *Vector) refreshFrom(i, oldLen int) {
	for ; i < len(s.elems); i++ {
		s.table.SetInt(spaceI, int64(i), int64(s.elems[i]))
	}
	for ; i < oldLen; i++ {
		s.table.DeleteInt(spaceI, int64(i))
	}
}

// ApplyMutator implements core.Spec.
func (s *Vector) ApplyMutator(method string, args []event.Value, ret event.Value) error {
	switch method {
	case "AddElement":
		if len(args) != 1 {
			return errRet(method, args, ret, "expected one element")
		}
		x, ok := event.Int(args[0])
		if !ok {
			return errRet(method, args, ret, "non-integer element")
		}
		if ret != nil {
			return errRet(method, args, ret, "AddElement returns nothing")
		}
		s.elems = append(s.elems, x)
		s.refreshFrom(len(s.elems)-1, len(s.elems)-1)
		return nil

	case "InsertElementAt":
		if len(args) != 2 {
			return errRet(method, args, ret, "expected element and index")
		}
		x, okx := event.Int(args[0])
		i, oki := event.Int(args[1])
		if !okx || !oki {
			return errRet(method, args, ret, "non-integer arguments")
		}
		outOfRange := i < 0 || i > len(s.elems)
		if event.IsExceptional(ret) {
			if !outOfRange {
				return errRet(method, args, ret, "exceptional termination but the index is in range in the witness interleaving")
			}
			return nil
		}
		if ret != nil {
			return errRet(method, args, ret, "return value must be nil or exceptional")
		}
		if outOfRange {
			return errRet(method, args, ret, "index out of range in the witness interleaving")
		}
		s.elems = append(s.elems, 0)
		copy(s.elems[i+1:], s.elems[i:])
		s.elems[i] = x
		s.refreshFrom(i, len(s.elems)-1)
		return nil

	case "RemoveElementAt":
		if len(args) != 1 {
			return errRet(method, args, ret, "expected one index")
		}
		i, ok := event.Int(args[0])
		if !ok {
			return errRet(method, args, ret, "non-integer index")
		}
		outOfRange := i < 0 || i >= len(s.elems)
		if event.IsExceptional(ret) {
			if !outOfRange {
				return errRet(method, args, ret, "exceptional termination but the index is in range in the witness interleaving")
			}
			return nil
		}
		if ret != nil {
			return errRet(method, args, ret, "return value must be nil or exceptional")
		}
		if outOfRange {
			return errRet(method, args, ret, "index out of range in the witness interleaving")
		}
		oldLen := len(s.elems)
		s.elems = append(s.elems[:i], s.elems[i+1:]...)
		s.refreshFrom(i, oldLen)
		return nil

	case "RemoveAllElements":
		if ret != nil {
			return errRet(method, args, ret, "RemoveAllElements returns nothing")
		}
		oldLen := len(s.elems)
		s.elems = s.elems[:0]
		s.refreshFrom(0, oldLen)
		return nil

	case "TrimToSize":
		if ret != nil {
			return errRet(method, args, ret, "TrimToSize returns nothing")
		}
		return nil
	}
	return fmt.Errorf("unknown mutator %q", method)
}

// CheckObserver implements core.Spec.
func (s *Vector) CheckObserver(method string, args []event.Value, ret event.Value) bool {
	switch method {
	case "Size":
		got, ok := event.Int(ret)
		return ok && len(args) == 0 && got == len(s.elems)

	case "ElementAt":
		if len(args) != 1 {
			return false
		}
		i, ok := event.Int(args[0])
		if !ok {
			return false
		}
		if i < 0 || i >= len(s.elems) {
			return event.IsExceptional(ret)
		}
		got, ok := event.Int(ret)
		return ok && got == s.elems[i]

	case "LastIndexOf":
		if len(args) != 1 {
			return false
		}
		x, ok := event.Int(args[0])
		if !ok {
			return false
		}
		got, ok := event.Int(ret)
		if !ok {
			return false // exceptional termination is never permitted
		}
		want := -1
		for i := len(s.elems) - 1; i >= 0; i-- {
			if s.elems[i] == x {
				want = i
				break
			}
		}
		return got == want
	}
	return false
}
