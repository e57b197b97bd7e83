package spec

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

// The checker relies on contracts every specification must honor
// (Section 3.2 and the core.Spec documentation):
//
//  1. CheckObserver never modifies the state.
//  2. A rejected ApplyMutator leaves the state unchanged.
//  3. Reset returns to the initial state (same view fingerprint).
//  4. IsMutator is consistent: observers rejected by ApplyMutator,
//     mutators rejected by CheckObserver.
//
// The linearizability engine derives its model from the specifications
// that are Linearizable (a model is a frozen specification: Step is Clone
// plus ApplyMutator, the fingerprint is the view hash), which rests on
// three more:
//
//  5. Clone is independent: mutating a clone, or the source afterwards,
//     leaves the other and every other clone unchanged — and a rejected
//     mutator on a clone changes neither (contract 2 across a clone).
//  6. CheckObserver, View().Hash() and Clone write nothing a concurrent
//     reader could see: frozen specifications are shared across
//     goroutines (run under -race).
//  7. The view determines the state (internal/linearize's exhaustive
//     fingerprint collision tests).
//
// This table drives the same contract checks over every specification in
// the package.

type specCase struct {
	name string
	make func() core.Spec
	// warmup drives the spec into a non-trivial state.
	warmup []call
	// rejected is a mutator application the warmed-up spec must refuse.
	rejected call
	// malformed are further calls, of either class, the spec must refuse:
	// the cases the hand-written linearizability models refused and the
	// specification used to accept, settled here when the models went.
	malformed []call
	// mutate is a mutator application that changes the warmed-up state
	// (Linearizable specs only: the Clone contracts use it).
	mutate call
	// observer is a valid observation at the warmed-up state.
	observer call
	// mutators/observers name at least one method of each class.
	mutator, observerName string
}

type call struct {
	m    string
	args []event.Value
	ret  event.Value
}

func conformanceCases() []specCase {
	return []specCase{
		{
			name: "Multiset",
			make: func() core.Spec { return NewMultiset() },
			warmup: []call{
				{"Insert", []event.Value{3}, true},
				{"InsertPair", []event.Value{4, 5}, true},
			},
			rejected:     call{"Delete", []event.Value{99}, true},
			malformed:    []call{{"Compress", nil, true}},
			mutate:       call{"Insert", []event.Value{9}, true},
			observer:     call{"LookUp", []event.Value{3}, true},
			mutator:      "Insert",
			observerName: "LookUp",
		},
		{
			name: "KV",
			make: func() core.Spec { return NewKV() },
			warmup: []call{
				{"Insert", []event.Value{1, 10}, nil},
				{"Insert", []event.Value{2, 20}, nil},
			},
			rejected:     call{"Delete", []event.Value{99}, true},
			malformed:    []call{{"Compress", nil, 1}},
			mutate:       call{"Insert", []event.Value{3, 30}, nil},
			observer:     call{"Lookup", []event.Value{1}, 10},
			mutator:      "Insert",
			observerName: "Lookup",
		},
		{
			name: "Vector",
			make: func() core.Spec { return NewVector() },
			warmup: []call{
				{"AddElement", []event.Value{7}, nil},
				{"AddElement", []event.Value{8}, nil},
			},
			rejected:     call{"RemoveElementAt", []event.Value{99}, nil},
			malformed:    []call{{"Size", []event.Value{0}, 2}},
			mutate:       call{"AddElement", []event.Value{9}, nil},
			observer:     call{"Size", nil, 2},
			mutator:      "AddElement",
			observerName: "Size",
		},
		{
			name: "StringBuffers",
			make: func() core.Spec { return NewStringBuffers(2) },
			warmup: []call{
				{"Append", []event.Value{0, "ab"}, nil},
				{"Append", []event.Value{1, "cd"}, nil},
			},
			rejected:     call{"Delete", []event.Value{0, 9, 12}, nil},
			mutate:       call{"Append", []event.Value{0, "z"}, nil},
			observer:     call{"ToString", []event.Value{0}, "ab"},
			mutator:      "Append",
			observerName: "ToString",
		},
		{
			name: "Store",
			make: func() core.Spec { return NewStore() },
			warmup: []call{
				{"Write", []event.Value{1, []byte{1, 2}}, nil},
			},
			rejected:     call{"Write", []event.Value{1, "not-bytes"}, nil},
			malformed:    []call{{"Compress", nil, true}},
			mutate:       call{"Write", []event.Value{2, []byte{7}}, nil},
			observer:     call{"Read", []event.Value{1}, []byte{1, 2}},
			mutator:      "Write",
			observerName: "Read",
		},
		{
			name: "Stack",
			make: func() core.Spec { return NewStack() },
			warmup: []call{
				{"Push", []event.Value{3}, nil},
				{"Push", []event.Value{5}, nil},
			},
			rejected:     call{"Pop", nil, 99},
			observer:     call{"Top", nil, 5},
			mutator:      "Push",
			observerName: "Top",
		},
		{
			name: "Register",
			make: func() core.Spec { return NewRegister() },
			warmup: []call{
				{"Write", []event.Value{7}, nil},
			},
			rejected:     call{"Write", []event.Value{1 << RegisterShift}, nil},
			observer:     call{"Read", nil, 7<<RegisterShift | 7},
			mutator:      "Write",
			observerName: "Read",
		},
		{
			name: "FS",
			make: func() core.Spec { return NewFS() },
			warmup: []call{
				{"Create", []event.Value{"a"}, true},
				{"WriteFile", []event.Value{"a", []byte{9}}, true},
			},
			rejected:     call{"Delete", []event.Value{"ghost"}, true},
			malformed:    []call{{"Compress", nil, true}},
			mutate:       call{"Create", []event.Value{"b"}, true},
			observer:     call{"ReadFile", []event.Value{"a"}, []byte{9}},
			mutator:      "Create",
			observerName: "ReadFile",
		},
	}
}

func warmedUp(t *testing.T, c specCase) core.Spec {
	t.Helper()
	s := c.make()
	for _, w := range c.warmup {
		if err := s.ApplyMutator(w.m, w.args, w.ret); err != nil {
			t.Fatalf("%s warmup %s: %v", c.name, w.m, err)
		}
	}
	return s
}

func TestSpecObserverPurity(t *testing.T) {
	for _, c := range conformanceCases() {
		t.Run(c.name, func(t *testing.T) {
			s := warmedUp(t, c)
			h := s.View().Hash()
			if !s.CheckObserver(c.observer.m, c.observer.args, c.observer.ret) {
				t.Fatalf("valid observation rejected: %+v", c.observer)
			}
			// Invalid observations must not mutate either.
			s.CheckObserver(c.observer.m, c.observer.args, "garbage")
			s.CheckObserver("NoSuchMethod", nil, nil)
			if s.View().Hash() != h {
				t.Fatal("CheckObserver modified the state")
			}
		})
	}
}

func TestSpecRejectedMutatorLeavesStateUnchanged(t *testing.T) {
	for _, c := range conformanceCases() {
		t.Run(c.name, func(t *testing.T) {
			s := warmedUp(t, c)
			h := s.View().Hash()
			if err := s.ApplyMutator(c.rejected.m, c.rejected.args, c.rejected.ret); err == nil {
				t.Fatalf("rejected case accepted: %+v", c.rejected)
			}
			if err := s.ApplyMutator("NoSuchMethod", nil, nil); err == nil {
				t.Fatal("unknown mutator accepted")
			}
			for _, m := range c.malformed {
				if s.IsMutator(m.m) {
					if err := s.ApplyMutator(m.m, m.args, m.ret); err == nil {
						t.Fatalf("malformed mutator accepted: %+v", m)
					}
				} else if s.CheckObserver(m.m, m.args, m.ret) {
					t.Fatalf("malformed observation accepted: %+v", m)
				}
			}
			if s.View().Hash() != h {
				t.Fatal("rejected ApplyMutator modified the state")
			}
		})
	}
}

// linearizable returns the warmed-up spec as a Linearizable, or skips:
// Stack, Register and Ledger are checked by refinement only.
func linearizable(t *testing.T, c specCase) Linearizable {
	t.Helper()
	s, ok := warmedUp(t, c).(Linearizable)
	if !ok {
		t.Skipf("%s is not checked for linearizability", c.name)
	}
	return s
}

// TestLinearizableSpecs pins which specifications the engine can search
// over: the six a bench subject checks for linearizability.
func TestLinearizableSpecs(t *testing.T) {
	var got []string
	for _, c := range conformanceCases() {
		if _, ok := c.make().(Linearizable); ok {
			got = append(got, c.name)
		}
	}
	want := []string{"Multiset", "KV", "Vector", "StringBuffers", "Store", "FS"}
	if !slices.Equal(got, want) {
		t.Fatalf("linearizable specs %v, want %v", got, want)
	}
}

func TestSpecCloneIsIndependent(t *testing.T) {
	for _, c := range conformanceCases() {
		t.Run(c.name, func(t *testing.T) {
			s := linearizable(t, c)
			h := s.View().Hash()
			unchanged := func(who string, x Linearizable) {
				t.Helper()
				if x.View().Hash() != h {
					t.Fatalf("%s: view changed", who)
				}
				if !x.CheckObserver(c.observer.m, c.observer.args, c.observer.ret) {
					t.Fatalf("%s: observer answer changed", who)
				}
			}
			c1, c2 := s.Clone(), s.Clone()
			unchanged("fresh clone", c1)

			// A rejected mutator on a clone changes neither side.
			if err := c1.ApplyMutator(c.rejected.m, c.rejected.args, c.rejected.ret); err == nil {
				t.Fatalf("rejected case accepted on a clone: %+v", c.rejected)
			}
			unchanged("clone after a rejected mutator", c1)
			unchanged("source after a rejected mutator on its clone", s)

			// Mutating a clone leaves the source and a second clone alone.
			if err := c1.ApplyMutator(c.mutate.m, c.mutate.args, c.mutate.ret); err != nil {
				t.Fatal(err)
			}
			if c1.View().Hash() == h {
				t.Fatal("mutate did not change the view; the case is vacuous")
			}
			unchanged("source after its clone mutated", s)
			unchanged("second clone after the first mutated", c2)

			// And the other direction: mutating the source leaves clones alone.
			if err := s.ApplyMutator(c.mutate.m, c.mutate.args, c.mutate.ret); err != nil {
				t.Fatal(err)
			}
			unchanged("clone after its source mutated", c2)
			if s.View().Hash() != c1.View().Hash() {
				t.Fatal("the same mutator from the same state reached different views")
			}
			c3 := c2.Clone()
			c2.Reset()
			unchanged("clone of a clone after the latter was reset", c3)
		})
	}
}

// TestSpecFrozenIsSharable reads one never-mutated specification from
// several goroutines the way the engine's segment cache does: observers,
// the view hash, and clones that are then mutated. Any write behind those
// reads is a data race for the detector to report.
func TestSpecFrozenIsSharable(t *testing.T) {
	for _, c := range conformanceCases() {
		t.Run(c.name, func(t *testing.T) {
			s := linearizable(t, c)
			h := s.View().Hash()
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						if !s.CheckObserver(c.observer.m, c.observer.args, c.observer.ret) || s.View().Hash() != h {
							t.Error("frozen specification changed under concurrent readers")
							return
						}
						next := s.Clone()
						if err := next.ApplyMutator(c.mutate.m, c.mutate.args, c.mutate.ret); err != nil {
							t.Error(err)
							return
						}
						if next.ApplyMutator(c.rejected.m, c.rejected.args, c.rejected.ret) == nil {
							t.Errorf("rejected case accepted: %+v", c.rejected)
							return
						}
					}
				}()
			}
			wg.Wait()
			if s.View().Hash() != h {
				t.Fatal("frozen specification changed")
			}
		})
	}
}

func TestSpecResetRestoresInitialState(t *testing.T) {
	for _, c := range conformanceCases() {
		t.Run(c.name, func(t *testing.T) {
			fresh := c.make()
			initial := fresh.View().Hash()
			s := warmedUp(t, c)
			if s.View().Hash() == initial && len(c.warmup) > 0 {
				t.Fatal("warmup did not change the view; the case is vacuous")
			}
			s.Reset()
			if s.View().Hash() != initial {
				t.Fatal("Reset did not restore the initial view")
			}
		})
	}
}

func TestSpecMethodClassification(t *testing.T) {
	for _, c := range conformanceCases() {
		t.Run(c.name, func(t *testing.T) {
			s := c.make()
			if !s.IsMutator(c.mutator) {
				t.Fatalf("%s not classified as a mutator", c.mutator)
			}
			if s.IsMutator(c.observerName) {
				t.Fatalf("%s not classified as an observer", c.observerName)
			}
			// Driving an observer through ApplyMutator must fail rather than
			// silently succeed (the checker routes by IsMutator, but specs
			// must be defensive).
			if err := s.ApplyMutator(c.observerName, c.observer.args, c.observer.ret); err == nil {
				t.Fatalf("ApplyMutator accepted observer %s", c.observerName)
			}
		})
	}
}

func TestSpecCompressIsUniversallyNeutral(t *testing.T) {
	for _, c := range conformanceCases() {
		t.Run(c.name, func(t *testing.T) {
			s := warmedUp(t, c)
			h := s.View().Hash()
			err := s.ApplyMutator(MethodCompress, nil, nil)
			if s.View().Hash() != h {
				t.Fatal("Compress changed the view")
			}
			if err != nil {
				// Vector and StringBuffers have no maintenance thread, so
				// their specs have no Compress pseudo-method.
				t.Skipf("spec has no maintenance pseudo-method: %v", err)
			}
		})
	}
}
