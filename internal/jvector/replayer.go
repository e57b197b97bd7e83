package jvector

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/view"
)

// Replayer reconstructs the vector contents from the logged writes and
// maintains viewI in the same canonical form as the Vector specification's
// viewS: one "i:<index>" entry per element. Updates touch only the indices
// the operation moved, so maintenance is proportional to the shift distance.
//
// Write operations:
//
//	"vec-add" x      append
//	"vec-ins" i x    insert at i
//	"vec-rm" i       remove at i
//	"vec-clear"      remove everything
type Replayer struct {
	elems []int
	table *view.Table
}

// NewReplayer returns an empty replica.
func NewReplayer() *Replayer {
	r := &Replayer{}
	r.Reset()
	return r
}

// Reset implements core.Replayer.
func (r *Replayer) Reset() {
	r.elems = nil
	r.table = view.NewTable()
}

// spaceI is the view key family of vector indices, shared by name with
// spec.Vector so spec and replica views land in the same key universe.
var spaceI = view.NewSpace("i")

// View implements core.Replayer.
func (r *Replayer) View() *view.Table { return r.table }

func (r *Replayer) refreshFrom(i, oldLen int) {
	for ; i < len(r.elems); i++ {
		r.table.SetInt(spaceI, int64(i), int64(r.elems[i]))
	}
	for ; i < oldLen; i++ {
		r.table.DeleteInt(spaceI, int64(i))
	}
}

// Apply implements core.Replayer.
func (r *Replayer) Apply(op string, args []event.Value) error {
	switch op {
	case "vec-add":
		if len(args) != 1 {
			return fmt.Errorf("jvector replay: vec-add wants one element, got %v", args)
		}
		x, ok := event.Int(args[0])
		if !ok {
			return fmt.Errorf("jvector replay: vec-add non-integer arg %v", args)
		}
		r.elems = append(r.elems, x)
		r.refreshFrom(len(r.elems)-1, len(r.elems)-1)
		return nil

	case "vec-ins":
		if len(args) != 2 {
			return fmt.Errorf("jvector replay: vec-ins wants index and element, got %v", args)
		}
		i, ok1 := event.Int(args[0])
		x, ok2 := event.Int(args[1])
		if !ok1 || !ok2 {
			return fmt.Errorf("jvector replay: vec-ins non-integer args %v", args)
		}
		if i < 0 || i > len(r.elems) {
			return fmt.Errorf("jvector replay: vec-ins index %d out of range (len %d)", i, len(r.elems))
		}
		r.elems = append(r.elems, 0)
		copy(r.elems[i+1:], r.elems[i:])
		r.elems[i] = x
		r.refreshFrom(i, len(r.elems)-1)
		return nil

	case "vec-rm":
		if len(args) != 1 {
			return fmt.Errorf("jvector replay: vec-rm wants index, got %v", args)
		}
		i, ok := event.Int(args[0])
		if !ok {
			return fmt.Errorf("jvector replay: vec-rm non-integer arg %v", args)
		}
		if i < 0 || i >= len(r.elems) {
			return fmt.Errorf("jvector replay: vec-rm index %d out of range (len %d)", i, len(r.elems))
		}
		oldLen := len(r.elems)
		r.elems = append(r.elems[:i], r.elems[i+1:]...)
		r.refreshFrom(i, oldLen)
		return nil

	case "vec-clear":
		oldLen := len(r.elems)
		r.elems = r.elems[:0]
		r.refreshFrom(0, oldLen)
		return nil
	}
	return fmt.Errorf("jvector replay: unknown op %q", op)
}

// Invariants implements core.Replayer; the sequence has no additional
// internal invariants beyond its view.
func (r *Replayer) Invariants() error { return nil }

// Snapshot exposes the reconstructed contents, for tests.
func (r *Replayer) Snapshot() []int {
	out := make([]int, len(r.elems))
	copy(out, r.elems)
	return out
}
