package spec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/event"
)

func TestVectorAddAndObservers(t *testing.T) {
	s := NewVector()
	mustApply(t, s, "AddElement", []event.Value{10}, nil)
	mustApply(t, s, "AddElement", []event.Value{20}, nil)
	if !s.CheckObserver("Size", nil, 2) {
		t.Fatal("Size -> 2 rejected")
	}
	if s.CheckObserver("Size", nil, 3) {
		t.Fatal("Size -> 3 accepted")
	}
	if !s.CheckObserver("ElementAt", []event.Value{0}, 10) ||
		!s.CheckObserver("ElementAt", []event.Value{1}, 20) {
		t.Fatal("ElementAt rejected stored values")
	}
	if !s.CheckObserver("ElementAt", []event.Value{5}, event.Exceptional{Reason: "x"}) {
		t.Fatal("ElementAt out of range must permit exceptional termination")
	}
	if s.CheckObserver("ElementAt", []event.Value{5}, 0) {
		t.Fatal("ElementAt out of range accepted a value")
	}
}

func TestVectorLastIndexOf(t *testing.T) {
	s := NewVector()
	for _, x := range []int{5, 7, 5, 9} {
		mustApply(t, s, "AddElement", []event.Value{x}, nil)
	}
	if !s.CheckObserver("LastIndexOf", []event.Value{5}, 2) {
		t.Fatal("LastIndexOf(5) -> 2 rejected")
	}
	if s.CheckObserver("LastIndexOf", []event.Value{5}, 0) {
		t.Fatal("LastIndexOf(5) -> 0 accepted (not the last index)")
	}
	if !s.CheckObserver("LastIndexOf", []event.Value{8}, -1) {
		t.Fatal("LastIndexOf(absent) -> -1 rejected")
	}
	// The specification never permits an exceptional LastIndexOf — this is
	// exactly how the Vector bug is detected (Section 7.4.1).
	if s.CheckObserver("LastIndexOf", []event.Value{5}, event.Exceptional{Reason: "AIOOBE"}) {
		t.Fatal("exceptional LastIndexOf accepted")
	}
}

func TestVectorInsertAndRemoveAt(t *testing.T) {
	s := NewVector()
	mustApply(t, s, "AddElement", []event.Value{1}, nil)
	mustApply(t, s, "AddElement", []event.Value{3}, nil)
	mustApply(t, s, "InsertElementAt", []event.Value{2, 1}, nil)
	for i, want := range []int{1, 2, 3} {
		if !s.CheckObserver("ElementAt", []event.Value{i}, want) {
			t.Fatalf("element %d != %d", i, want)
		}
	}
	// Out-of-range insert must terminate exceptionally; a silent success is
	// rejected and so is an exceptional termination of an in-range insert.
	mustApply(t, s, "InsertElementAt", []event.Value{9, 99}, event.Exceptional{Reason: "x"})
	if err := s.ApplyMutator("InsertElementAt", []event.Value{9, 99}, nil); err == nil {
		t.Fatal("out-of-range insert accepted")
	}
	if err := s.ApplyMutator("InsertElementAt", []event.Value{9, 0}, event.Exceptional{Reason: "x"}); err == nil {
		t.Fatal("exceptional in-range insert accepted")
	}

	mustApply(t, s, "RemoveElementAt", []event.Value{1}, nil)
	if !s.CheckObserver("Size", nil, 2) || !s.CheckObserver("ElementAt", []event.Value{1}, 3) {
		t.Fatal("remove shifted incorrectly")
	}
	mustApply(t, s, "RemoveElementAt", []event.Value{7}, event.Exceptional{Reason: "x"})
	if err := s.ApplyMutator("RemoveElementAt", []event.Value{0}, event.Exceptional{Reason: "x"}); err == nil {
		t.Fatal("exceptional in-range remove accepted")
	}
}

func TestVectorRemoveAllAndTrim(t *testing.T) {
	s := NewVector()
	for i := 0; i < 5; i++ {
		mustApply(t, s, "AddElement", []event.Value{i}, nil)
	}
	h := s.View().Hash()
	mustApply(t, s, "TrimToSize", nil, nil)
	if s.View().Hash() != h {
		t.Fatal("TrimToSize changed the abstract state")
	}
	mustApply(t, s, "RemoveAllElements", nil, nil)
	if s.Len() != 0 || !s.CheckObserver("Size", nil, 0) {
		t.Fatal("RemoveAllElements did not clear")
	}
	if s.View().Len() != 0 || s.View().Hash() != NewVector().View().Hash() {
		t.Fatalf("stale index entries in the view: %s", s.View())
	}
}

func TestVectorViewTracksIndices(t *testing.T) {
	s := NewVector()
	mustApply(t, s, "AddElement", []event.Value{10}, nil)
	mustApply(t, s, "AddElement", []event.Value{20}, nil)
	mustApply(t, s, "RemoveElementAt", []event.Value{0}, nil)
	if v, _ := s.View().GetInt(spaceI, 0); v != 20 {
		t.Fatalf("view i:0 = %d after shift", v)
	}
	if _, ok := s.View().GetInt(spaceI, 1); ok {
		t.Fatal("view kept a truncated index")
	}
	if got := s.View().String(); got != "{i:0=20}" {
		t.Fatalf("view renders as %s", got)
	}
}

// TestQuickVectorAgainstModel compares against a slice model under random
// valid operations.
func TestQuickVectorAgainstModel(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewVector()
		var model []int
		for i := 0; i < int(n); i++ {
			switch rng.Intn(5) {
			case 0:
				x := rng.Intn(50)
				if s.ApplyMutator("AddElement", []event.Value{x}, nil) != nil {
					return false
				}
				model = append(model, x)
			case 1:
				x, pos := rng.Intn(50), rng.Intn(len(model)+1)
				if s.ApplyMutator("InsertElementAt", []event.Value{x, pos}, nil) != nil {
					return false
				}
				model = append(model, 0)
				copy(model[pos+1:], model[pos:])
				model[pos] = x
			case 2:
				if len(model) == 0 {
					continue
				}
				pos := rng.Intn(len(model))
				if s.ApplyMutator("RemoveElementAt", []event.Value{pos}, nil) != nil {
					return false
				}
				model = append(model[:pos], model[pos+1:]...)
			case 3:
				if !s.CheckObserver("Size", nil, len(model)) {
					return false
				}
			case 4:
				x := rng.Intn(50)
				want := -1
				for j := len(model) - 1; j >= 0; j-- {
					if model[j] == x {
						want = j
						break
					}
				}
				if !s.CheckObserver("LastIndexOf", []event.Value{x}, want) {
					return false
				}
			}
		}
		if s.Len() != len(model) {
			return false
		}
		for i, x := range model {
			if !s.CheckObserver("ElementAt", []event.Value{i}, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
