package spec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/event"
)

func TestMultisetInsertSuccess(t *testing.T) {
	s := NewMultiset()
	if err := s.ApplyMutator("Insert", []event.Value{3}, true); err != nil {
		t.Fatal(err)
	}
	if s.Count(3) != 1 || s.View().Len() != 1 {
		t.Fatalf("count %d, %d distinct elements", s.Count(3), s.View().Len())
	}
	if !s.CheckObserver("LookUp", []event.Value{3}, true) {
		t.Fatal("LookUp(3) -> true rejected")
	}
	if s.CheckObserver("LookUp", []event.Value{3}, false) {
		t.Fatal("LookUp(3) -> false accepted while present")
	}
}

func TestMultisetInsertFailureLeavesStateUnchanged(t *testing.T) {
	s := NewMultiset()
	h := s.View().Hash()
	if err := s.ApplyMutator("Insert", []event.Value{3}, false); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyMutator("Insert", []event.Value{3}, event.Exceptional{Reason: "contention"}); err != nil {
		t.Fatal(err)
	}
	if s.View().Hash() != h || s.Count(3) != 0 {
		t.Fatal("failed insert changed the state")
	}
}

func TestMultisetInsertPairBothOrNeither(t *testing.T) {
	s := NewMultiset()
	if err := s.ApplyMutator("InsertPair", []event.Value{1, 2}, true); err != nil {
		t.Fatal(err)
	}
	if s.Count(1) != 1 || s.Count(2) != 1 {
		t.Fatal("pair insert did not add both")
	}
	if err := s.ApplyMutator("InsertPair", []event.Value{5, 6}, false); err != nil {
		t.Fatal(err)
	}
	if s.Count(5) != 0 || s.Count(6) != 0 {
		t.Fatal("failed pair insert changed the state")
	}
	// Same element twice.
	if err := s.ApplyMutator("InsertPair", []event.Value{7, 7}, true); err != nil {
		t.Fatal(err)
	}
	if s.Count(7) != 2 {
		t.Fatalf("InsertPair(7,7) count = %d", s.Count(7))
	}
}

func TestMultisetDeleteSemantics(t *testing.T) {
	s := NewMultiset()
	// Delete(x) -> true requires presence.
	if err := s.ApplyMutator("Delete", []event.Value{9}, true); err == nil {
		t.Fatal("Delete of absent element accepted")
	}
	// Delete(x) -> false is always permitted (scan misses are legal).
	if err := s.ApplyMutator("Delete", []event.Value{9}, false); err != nil {
		t.Fatal(err)
	}
	mustApply(t, s, "Insert", []event.Value{9}, true)
	if err := s.ApplyMutator("Delete", []event.Value{9}, false); err != nil {
		t.Fatal("Delete(present) -> false must be permitted")
	}
	if s.Count(9) != 1 {
		t.Fatal("permitted not-found delete changed the state")
	}
	if err := s.ApplyMutator("Delete", []event.Value{9}, true); err != nil {
		t.Fatal(err)
	}
	if s.Count(9) != 0 {
		t.Fatal("delete did not remove")
	}
}

func TestMultisetMultiplicity(t *testing.T) {
	s := NewMultiset()
	for i := 0; i < 3; i++ {
		mustApply(t, s, "Insert", []event.Value{4}, true)
	}
	if s.Count(4) != 3 {
		t.Fatalf("count = %d", s.Count(4))
	}
	mustApply(t, s, "Delete", []event.Value{4}, true)
	if s.Count(4) != 2 || !s.CheckObserver("LookUp", []event.Value{4}, true) {
		t.Fatal("multiplicity bookkeeping broken")
	}
}

func TestMultisetCompressIsNoOp(t *testing.T) {
	s := NewMultiset()
	mustApply(t, s, "Insert", []event.Value{1}, true)
	h := s.View().Hash()
	if err := s.ApplyMutator(MethodCompress, nil, nil); err != nil {
		t.Fatal(err)
	}
	if s.View().Hash() != h {
		t.Fatal("Compress changed the abstract state")
	}
}

func TestMultisetRejectsMalformed(t *testing.T) {
	s := NewMultiset()
	cases := []struct {
		m    string
		args []event.Value
		ret  event.Value
	}{
		{"Insert", nil, true},                         // missing arg
		{"Insert", []event.Value{"x"}, true},          // non-integer
		{"Insert", []event.Value{1}, "yes"},           // non-bool ret
		{"InsertPair", []event.Value{1}, true},        // missing arg
		{"Delete", []event.Value{1, 2}, true},         // extra arg
		{"Delete", []event.Value{1}, nil},             // non-bool ret
		{"Frobnicate", []event.Value{1}, nil},         // unknown method
		{"InsertPair", []event.Value{1, "b"}, true},   // non-integer
		{"InsertPair", []event.Value{1, 2}, int64(3)}, // non-bool ret
	}
	for _, c := range cases {
		if err := s.ApplyMutator(c.m, c.args, c.ret); err == nil {
			t.Fatalf("ApplyMutator(%s, %v, %v) accepted", c.m, c.args, c.ret)
		}
	}
	if s.CheckObserver("LookUp", nil, true) {
		t.Fatal("observer check accepted missing args")
	}
	if s.CheckObserver("LookUp", []event.Value{1}, "yes") {
		t.Fatal("observer check accepted a non-bool return")
	}
	if s.CheckObserver("Nope", []event.Value{1}, true) {
		t.Fatal("observer check accepted an unknown method")
	}
}

func TestMultisetIsMutatorClassification(t *testing.T) {
	s := NewMultiset()
	for _, m := range []string{"Insert", "InsertPair", "Delete", MethodCompress} {
		if !s.IsMutator(m) {
			t.Fatalf("%s should be a mutator", m)
		}
	}
	if s.IsMutator("LookUp") {
		t.Fatal("LookUp should be an observer")
	}
}

func TestMultisetReset(t *testing.T) {
	s := NewMultiset()
	mustApply(t, s, "Insert", []event.Value{1}, true)
	s.Reset()
	if s.Count(1) != 0 || s.View().Len() != 0 || s.View().Hash() != 0 {
		t.Fatal("reset did not clear")
	}
}

// TestQuickMultisetAgainstModel drives the spec with random valid
// operations and compares against a plain map model, including the view
// table contents.
func TestQuickMultisetAgainstModel(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewMultiset()
		model := map[int]int{}
		for i := 0; i < int(n); i++ {
			x := rng.Intn(8)
			switch rng.Intn(4) {
			case 0:
				if s.ApplyMutator("Insert", []event.Value{x}, true) != nil {
					return false
				}
				model[x]++
			case 1:
				y := rng.Intn(8)
				if s.ApplyMutator("InsertPair", []event.Value{x, y}, true) != nil {
					return false
				}
				model[x]++
				model[y]++
			case 2:
				present := model[x] > 0
				if err := s.ApplyMutator("Delete", []event.Value{x}, present); err != nil {
					return false
				}
				if present {
					model[x]--
				}
			case 3:
				if !s.CheckObserver("LookUp", []event.Value{x}, model[x] > 0) {
					return false
				}
			}
		}
		for x, c := range model {
			if s.Count(x) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func mustApply(t *testing.T, s interface {
	ApplyMutator(string, []event.Value, event.Value) error
}, m string, args []event.Value, ret event.Value) {
	t.Helper()
	if err := s.ApplyMutator(m, args, ret); err != nil {
		t.Fatalf("%s%v -> %v: %v", m, args, ret, err)
	}
}
