package spec

import (
	"fmt"
	"maps"

	"repro/internal/event"
	"repro/internal/view"
)

// FS is the executable specification of a file system's data path: a map
// from file names to byte contents (the abstraction the Scan file system of
// Section 7.3 provides to applications). Directory structure, inodes, block
// layout and caching are all implementation detail abstracted away by the
// view.
//
// Methods and return values:
//
//	Create(name) -> bool          mutator; true iff the name was fresh
//	WriteFile(name, bytes) -> bool mutator; true iff the file exists
//	                              (replaces the contents)
//	Append(name, bytes) -> bool   mutator; true iff the file exists
//	Delete(name) -> bool          mutator; true iff the file existed
//	ReadFile(name) -> bytes | nil observer; nil when absent
//	Compress() -> nil             mutator pseudo-method (flush / scan /
//	                              defragmentation daemons); abstract no-op
type FS struct {
	files map[string][]byte
	table *view.Table
}

// NewFS returns an empty file system specification.
func NewFS() *FS {
	s := &FS{}
	s.Reset()
	return s
}

// Reset implements core.Spec.
func (s *FS) Reset() {
	s.files = make(map[string][]byte)
	s.table = view.NewTable()
}

// Clone implements Linearizable. Contents are never modified in place
// (Append builds a fresh slice), so the copies share them.
func (s *FS) Clone() Linearizable {
	return &FS{files: maps.Clone(s.files), table: s.table.Clone()}
}

// FixedDomain implements Linearizable.
func (s *FS) FixedDomain() bool { return true }

// Keys implements Linearizable: operations partition per file name.
func (s *FS) Keys(method string, args []event.Value) ([]string, bool) {
	switch method {
	case "Create", "WriteFile", "Append", "Delete", "ReadFile":
		if len(args) < 1 {
			return nil, false
		}
		name, ok := args[0].(string)
		if !ok {
			return nil, false
		}
		return []string{name}, true
	case MethodCompress:
		return nil, true
	}
	return nil, false
}

// View implements core.Spec. Keys are "f:<name>"; values are the contents.
func (s *FS) View() *view.Table { return s.table }

// IsMutator implements core.Spec.
func (s *FS) IsMutator(method string) bool {
	return method != "ReadFile"
}

// Len returns the number of files.
func (s *FS) Len() int { return len(s.files) }

// Get returns a file's contents.
func (s *FS) Get(name string) ([]byte, bool) {
	b, ok := s.files[name]
	return b, ok
}

func (s *FS) set(name string, content []byte) {
	s.files[name] = content
	s.table.Set("f:"+name, event.Format(content))
}

// ApplyMutator implements core.Spec.
func (s *FS) ApplyMutator(method string, args []event.Value, ret event.Value) error {
	name, nameOK := "", false
	if len(args) > 0 {
		name, nameOK = args[0].(string)
	}
	switch method {
	case "Create":
		if !nameOK || len(args) != 1 {
			return errRet(method, args, ret, "expected a file name")
		}
		created, ok := ret.(bool)
		if !ok {
			return errRet(method, args, ret, "return value must be bool")
		}
		_, exists := s.files[name]
		if created == exists {
			return errRet(method, args, ret, "creation claim inconsistent with the witness interleaving")
		}
		if created {
			s.set(name, nil)
		}
		return nil

	case "WriteFile", "Append":
		if !nameOK || len(args) != 2 {
			return errRet(method, args, ret, "expected a file name and bytes")
		}
		data, ok := event.Bytes(args[1])
		if !ok {
			return errRet(method, args, ret, "second argument must be bytes")
		}
		okRet, ok := ret.(bool)
		if !ok {
			return errRet(method, args, ret, "return value must be bool")
		}
		old, exists := s.files[name]
		if okRet != exists {
			return errRet(method, args, ret, "existence claim inconsistent with the witness interleaving")
		}
		if !okRet {
			return nil
		}
		if method == "WriteFile" {
			s.set(name, data)
		} else {
			combined := make([]byte, 0, len(old)+len(data))
			combined = append(combined, old...)
			combined = append(combined, data...)
			s.set(name, combined)
		}
		return nil

	case "Delete":
		if !nameOK || len(args) != 1 {
			return errRet(method, args, ret, "expected a file name")
		}
		removed, ok := ret.(bool)
		if !ok {
			return errRet(method, args, ret, "return value must be bool")
		}
		_, exists := s.files[name]
		if removed != exists {
			return errRet(method, args, ret, "removal claim inconsistent with the witness interleaving")
		}
		if removed {
			delete(s.files, name)
			s.table.Delete("f:" + name)
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
func (s *FS) CheckObserver(method string, args []event.Value, ret event.Value) bool {
	if method != "ReadFile" || len(args) != 1 {
		return false
	}
	name, ok := args[0].(string)
	if !ok {
		return false
	}
	want, exists := s.files[name]
	if !exists {
		return ret == nil
	}
	got, ok := event.Bytes(ret)
	return ok && string(got) == string(want)
}
