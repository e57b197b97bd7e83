package spec

import (
	"fmt"
	"slices"

	"repro/internal/event"
	"repro/internal/view"
)

// StringBuffers is the executable specification of a family of
// java.util.StringBuffer analogues (Section 7.4.1), addressed by small
// integer identifiers so that the cross-buffer append — the method carrying
// the paper's known bug — is expressible in a single specification.
//
// Methods and return values:
//
//	Append(id, s) -> nil            mutator; buf[id] += s
//	AppendBuffer(dst, src) -> nil   mutator; buf[dst] += buf[src], atomically.
//	                                An exceptional termination is NOT
//	                                permitted: the "copying from an
//	                                unprotected StringBuffer" bug manifests
//	                                as exactly that (or as corrupt contents,
//	                                which view refinement catches).
//	Delete(id, start, end) -> nil | Exceptional  mutator; java semantics:
//	                                exceptional iff start<0, start>len or start>end;
//	                                end is clipped to len
//	SetLength(id, n) -> nil | Exceptional        mutator; exceptional iff n<0;
//	                                truncates or zero-extends
//	ToString(id) -> string          observer
//	Length(id) -> int               observer
type StringBuffers struct {
	n     int
	bufs  []string
	table *view.Table
}

// NewStringBuffers returns a specification for n empty buffers with
// identifiers 0..n-1.
func NewStringBuffers(n int) *StringBuffers {
	s := &StringBuffers{n: n}
	s.Reset()
	return s
}

// Reset implements core.Spec.
func (s *StringBuffers) Reset() {
	s.bufs = make([]string, s.n)
	s.table = view.NewTable()
	for i := 0; i < s.n; i++ {
		s.table.Set("sb:"+itoa(i), "")
	}
}

// Clone implements Linearizable.
func (s *StringBuffers) Clone() Linearizable {
	return &StringBuffers{n: s.n, bufs: slices.Clone(s.bufs), table: s.table.Clone()}
}

// FixedDomain implements Linearizable: contents grow without bound, so
// the reachable state frontier is not small.
func (s *StringBuffers) FixedDomain() bool { return false }

// Keys implements Linearizable: buffers are independent until a
// cross-buffer AppendBuffer bridges its two.
func (s *StringBuffers) Keys(method string, args []event.Value) ([]string, bool) {
	switch method {
	case "Append", "Delete", "SetLength", "ToString", "Length":
		return intKeys(args, 0)
	case "AppendBuffer":
		return intKeys(args, 0, 1)
	}
	return nil, false
}

// View implements core.Spec. Keys are "sb:<id>"; values are contents.
func (s *StringBuffers) View() *view.Table { return s.table }

// IsMutator implements core.Spec.
func (s *StringBuffers) IsMutator(method string) bool {
	switch method {
	case "ToString", "Length":
		return false
	}
	return true
}

// Content returns the contents of buffer id.
func (s *StringBuffers) Content(id int) string { return s.bufs[id] }

func (s *StringBuffers) id(args []event.Value, pos int) (int, bool) {
	if pos >= len(args) {
		return 0, false
	}
	id, ok := event.Int(args[pos])
	if !ok || id < 0 || id >= s.n {
		return 0, false
	}
	return id, true
}

func (s *StringBuffers) set(id int, content string) {
	s.bufs[id] = content
	s.table.Set("sb:"+itoa(id), content)
}

// ApplyMutator implements core.Spec.
func (s *StringBuffers) ApplyMutator(method string, args []event.Value, ret event.Value) error {
	switch method {
	case "Append":
		id, okid := s.id(args, 0)
		if !okid || len(args) != 2 {
			return errRet(method, args, ret, "expected buffer id and string")
		}
		str, ok := args[1].(string)
		if !ok {
			return errRet(method, args, ret, "second argument must be a string")
		}
		if ret != nil {
			return errRet(method, args, ret, "Append returns nothing")
		}
		s.set(id, s.bufs[id]+str)
		return nil

	case "AppendBuffer":
		dst, okd := s.id(args, 0)
		src, oks := s.id(args, 1)
		if !okd || !oks || len(args) != 2 {
			return errRet(method, args, ret, "expected destination and source buffer ids")
		}
		if ret != nil {
			return errRet(method, args, ret, "AppendBuffer returns nothing (exceptional termination is not permitted)")
		}
		s.set(dst, s.bufs[dst]+s.bufs[src])
		return nil

	case "Delete":
		id, okid := s.id(args, 0)
		if !okid || len(args) != 3 {
			return errRet(method, args, ret, "expected buffer id, start and end")
		}
		start, oks := event.Int(args[1])
		end, oke := event.Int(args[2])
		if !oks || !oke {
			return errRet(method, args, ret, "non-integer indices")
		}
		content := s.bufs[id]
		bad := start < 0 || start > len(content) || start > end
		if event.IsExceptional(ret) {
			if !bad {
				return errRet(method, args, ret, "exceptional termination but the range is valid in the witness interleaving")
			}
			return nil
		}
		if ret != nil {
			return errRet(method, args, ret, "return value must be nil or exceptional")
		}
		if bad {
			return errRet(method, args, ret, "range invalid in the witness interleaving")
		}
		if end > len(content) {
			end = len(content)
		}
		s.set(id, content[:start]+content[end:])
		return nil

	case "SetLength":
		id, okid := s.id(args, 0)
		if !okid || len(args) != 2 {
			return errRet(method, args, ret, "expected buffer id and length")
		}
		n, ok := event.Int(args[1])
		if !ok {
			return errRet(method, args, ret, "non-integer length")
		}
		if event.IsExceptional(ret) {
			if n >= 0 {
				return errRet(method, args, ret, "exceptional termination but the length is valid")
			}
			return nil
		}
		if ret != nil {
			return errRet(method, args, ret, "return value must be nil or exceptional")
		}
		if n < 0 {
			return errRet(method, args, ret, "negative length must terminate exceptionally")
		}
		content := s.bufs[id]
		if n <= len(content) {
			s.set(id, content[:n])
		} else {
			pad := make([]byte, n-len(content))
			s.set(id, content+string(pad))
		}
		return nil
	}
	return fmt.Errorf("unknown mutator %q", method)
}

// CheckObserver implements core.Spec.
func (s *StringBuffers) CheckObserver(method string, args []event.Value, ret event.Value) bool {
	id, okid := s.id(args, 0)
	if !okid || len(args) != 1 {
		return false
	}
	switch method {
	case "ToString":
		got, ok := ret.(string)
		return ok && got == s.bufs[id]
	case "Length":
		got, ok := event.Int(ret)
		return ok && got == len(s.bufs[id])
	}
	return false
}
