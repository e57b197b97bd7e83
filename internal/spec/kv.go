package spec

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/view"
)

// KV is the executable specification of an ordered key-to-data map: the
// abstract data type implemented by the Boxwood B-link tree (Section 7.2.3).
//
// Methods and return values:
//
//	Insert(key, data) -> nil  mutator; sets key to data (inserting or
//	                          overwriting). Like Boxwood's INSERT it returns
//	                          nothing, so I/O refinement can only reject an
//	                          insert through a later observer — which is why
//	                          view refinement detects insert-path bugs much
//	                          earlier (Table 1).
//	Delete(key) -> bool       mutator; true iff key was present
//	Lookup(key) -> int        observer; the data, or -1 when absent
//	Compress() -> nil         mutator pseudo-method; abstract no-op
//
// The view table is the state: keys are the stored keys, values the data.
type KV struct {
	table *view.Table
}

// spaceK is the view key family of stored keys ("k:<key>"), shared by name
// with the tree replayer so spec and replica views land in the same key
// universe.
var spaceK = view.NewSpace("k")

// NewKV returns an empty map specification.
func NewKV() *KV {
	s := &KV{}
	s.Reset()
	return s
}

// Reset implements core.Spec.
func (s *KV) Reset() { s.table = view.NewTable() }

// Clone implements Linearizable.
func (s *KV) Clone() Linearizable { return &KV{table: s.table.Clone()} }

// FixedDomain implements Linearizable.
func (s *KV) FixedDomain() bool { return true }

// Keys implements Linearizable: operations partition per key.
func (s *KV) Keys(method string, args []event.Value) ([]string, bool) {
	switch method {
	case "Insert", "Delete", "Lookup":
		return intKeys(args, 0)
	case MethodCompress:
		return nil, true
	}
	return nil, false
}

// View implements core.Spec. Keys are "k:<key>"; values are the data.
func (s *KV) View() *view.Table { return s.table }

// IsMutator implements core.Spec.
func (s *KV) IsMutator(method string) bool {
	return method != "Lookup"
}

// Len returns the number of keys.
func (s *KV) Len() int { return s.table.Len() }

// Get returns the data for key, if present.
func (s *KV) Get(key int) (int, bool) {
	v, ok := s.table.GetInt(spaceK, int64(key))
	return int(v), ok
}

// ApplyMutator implements core.Spec.
func (s *KV) ApplyMutator(method string, args []event.Value, ret event.Value) error {
	switch method {
	case "Insert":
		if len(args) != 2 {
			return errRet(method, args, ret, "expected key and data")
		}
		key, okk := event.Int(args[0])
		data, okd := event.Int(args[1])
		if !okk || !okd {
			return errRet(method, args, ret, "non-integer arguments")
		}
		if ret != nil {
			return errRet(method, args, ret, "Insert returns nothing")
		}
		s.table.SetInt(spaceK, int64(key), int64(data))
		return nil

	case "Delete":
		if len(args) != 1 {
			return errRet(method, args, ret, "expected one key")
		}
		key, ok := event.Int(args[0])
		if !ok {
			return errRet(method, args, ret, "non-integer key")
		}
		removed, ok := ret.(bool)
		if !ok {
			return errRet(method, args, ret, "return value must be bool")
		}
		_, present := s.Get(key)
		if removed != present {
			return errRet(method, args, ret, "removal claim inconsistent with the witness interleaving")
		}
		if removed {
			s.table.DeleteInt(spaceK, int64(key))
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
func (s *KV) CheckObserver(method string, args []event.Value, ret event.Value) bool {
	if method != "Lookup" || len(args) != 1 {
		return false
	}
	key, ok := event.Int(args[0])
	if !ok {
		return false
	}
	got, ok := event.Int(ret)
	if !ok {
		return false
	}
	if data, present := s.Get(key); present {
		return got == data
	}
	return got == -1
}
