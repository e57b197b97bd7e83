package event

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// Equal compares two logged values structurally. It fast-paths the small set
// of types that appear in practice (integers, strings, booleans, byte
// slices, Exceptional) and falls back to reflect.DeepEqual for the rest.
func Equal(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch av := a.(type) {
	case int:
		bv, ok := b.(int)
		return ok && av == bv
	case int64:
		bv, ok := b.(int64)
		return ok && av == bv
	case uint64:
		bv, ok := b.(uint64)
		return ok && av == bv
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv
	case []byte:
		bv, ok := b.([]byte)
		return ok && string(av) == string(bv)
	case Exceptional:
		bv, ok := b.(Exceptional)
		return ok && av == bv
	}
	return reflect.DeepEqual(a, b)
}

// Format renders a value canonically, so that digests and diagnostics are
// stable across runs. Maps are rendered with sorted keys.
func Format(v Value) string {
	switch vv := v.(type) {
	case nil:
		return "<nil>"
	case string:
		return fmt.Sprintf("%q", vv)
	case []byte:
		return fmt.Sprintf("0x%x", vv)
	case Exceptional:
		return "exceptional(" + vv.Reason + ")"
	case map[string]string:
		keys := make([]string, 0, len(vv))
		for k := range vv {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s:%s", k, vv[k])
		}
		b.WriteByte('}')
		return b.String()
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Int extracts an int from a logged value, accepting the integer widths the
// codec may round-trip through. ok is false for non-integer values.
func Int(v Value) (n int, ok bool) {
	switch vv := v.(type) {
	case int:
		return vv, true
	case int8:
		return int(vv), true
	case int16:
		return int(vv), true
	case int32:
		return int(vv), true
	case int64:
		return int(vv), true
	}
	return 0, false
}

// MustInt is Int for values the caller knows to be integers; it panics with
// a descriptive message otherwise. Intended for spec/replayer code decoding
// entries it produced itself.
func MustInt(v Value) int {
	n, ok := Int(v)
	if !ok {
		panic(fmt.Sprintf("event: value %v (%T) is not an integer", v, v))
	}
	return n
}

// String extracts a string from a logged value.
func String(v Value) (s string, ok bool) {
	s, ok = v.(string)
	return s, ok
}

// MustString is String for values the caller knows to be strings.
func MustString(v Value) string {
	s, ok := v.(string)
	if !ok {
		panic(fmt.Sprintf("event: value %v (%T) is not a string", v, v))
	}
	return s
}

// Bytes extracts a byte slice from a logged value.
func Bytes(v Value) (b []byte, ok bool) {
	b, ok = v.([]byte)
	return b, ok
}

// MustBytes is Bytes for values the caller knows to be byte slices.
func MustBytes(v Value) []byte {
	b, ok := v.([]byte)
	if !ok {
		panic(fmt.Sprintf("event: value %v (%T) is not a byte slice", v, v))
	}
	return b
}

// Bool extracts a bool from a logged value.
func Bool(v Value) (b, ok bool) {
	b, ok = v.(bool)
	return b, ok
}

// MustBool is Bool for values the caller knows to be booleans.
func MustBool(v Value) bool {
	b, ok := v.(bool)
	if !ok {
		panic(fmt.Sprintf("event: value %v (%T) is not a bool", v, v))
	}
	return b
}

// CloneBytes copies b. Implementations must log snapshots, not aliases, of
// mutable buffers: the log records observed values (DESIGN.md Section 3),
// and an aliased buffer could be mutated after the entry is appended.
func CloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	c := make([]byte, len(b))
	copy(c, b)
	return c
}
