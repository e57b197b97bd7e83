package spec

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/view"
)

// Store is the executable specification of the abstract data store provided
// by the Boxwood Cache + Chunk Manager combination (Section 7.2.1): a map
// from handles to byte arrays. Writing through the cache, flushing dirty
// entries, revoking entries and reclaiming clean entries are all either
// abstract assignments or abstract no-ops.
//
// Methods and return values:
//
//	Write(handle, bytes) -> nil   mutator; store[handle] = bytes
//	Read(handle) -> bytes | nil   observer; nil when the handle is unwritten
//	Flush() -> nil                mutator; abstract no-op
//	Revoke(handle) -> nil         mutator; abstract no-op (single-entry flush)
//	Compress() -> nil             mutator pseudo-method (reclaim daemon);
//	                              abstract no-op
//
// The view table is the state: keys are handles, values the written bytes.
type Store struct {
	table *view.Table
}

// spaceH is the view key family of written handles ("h:<handle>"), shared
// by name with the cache replayer so spec and replica views land in the
// same key universe.
var spaceH = view.NewSpace("h")

// NewStore returns an empty store specification.
func NewStore() *Store {
	s := &Store{}
	s.Reset()
	return s
}

// Reset implements core.Spec.
func (s *Store) Reset() { s.table = view.NewTable() }

// Clone implements Linearizable.
func (s *Store) Clone() Linearizable { return &Store{table: s.table.Clone()} }

// FixedDomain implements Linearizable.
func (s *Store) FixedDomain() bool { return true }

// Keys implements Linearizable: operations partition per handle; the
// flush, revoke and reclaim paths are abstract no-ops.
func (s *Store) Keys(method string, args []event.Value) ([]string, bool) {
	switch method {
	case "Write", "Read":
		return intKeys(args, 0)
	case "Flush", "Revoke", MethodCompress:
		return nil, true
	}
	return nil, false
}

// View implements core.Spec. Keys are "h:<handle>"; values are the bytes,
// hex-encoded by event.Format.
func (s *Store) View() *view.Table { return s.table }

// IsMutator implements core.Spec.
func (s *Store) IsMutator(method string) bool {
	return method != "Read"
}

// Get returns the stored bytes for a handle.
func (s *Store) Get(handle int) ([]byte, bool) {
	return s.table.GetIntBytes(spaceH, int64(handle))
}

// Len returns the number of written handles.
func (s *Store) Len() int { return s.table.Len() }

// ApplyMutator implements core.Spec.
func (s *Store) ApplyMutator(method string, args []event.Value, ret event.Value) error {
	switch method {
	case "Write":
		if len(args) != 2 {
			return errRet(method, args, ret, "expected handle and bytes")
		}
		h, ok := event.Int(args[0])
		if !ok {
			return errRet(method, args, ret, "non-integer handle")
		}
		buf, ok := event.Bytes(args[1])
		if !ok {
			return errRet(method, args, ret, "second argument must be bytes")
		}
		if ret != nil {
			return errRet(method, args, ret, "Write returns nothing")
		}
		s.table.SetIntBytes(spaceH, int64(h), buf)
		return nil

	case "Flush", "Revoke", MethodCompress:
		if ret != nil {
			return errRet(method, args, ret, method+" returns nothing")
		}
		return nil
	}
	return fmt.Errorf("unknown mutator %q", method)
}

// CheckObserver implements core.Spec.
func (s *Store) CheckObserver(method string, args []event.Value, ret event.Value) bool {
	if method != "Read" || len(args) != 1 {
		return false
	}
	h, ok := event.Int(args[0])
	if !ok {
		return false
	}
	want, present := s.Get(h)
	if !present {
		return ret == nil
	}
	got, ok := event.Bytes(ret)
	return ok && string(got) == string(want)
}
