package linearize

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/spec"
)

// randomMultisetTrace builds a well-formed concurrent multiset history:
// nKeys independent element families with overlapping Insert/Delete/LookUp
// executions per key, so the partition yields many components for the
// worker pool to fan over.
func randomMultisetTrace(seed int64, nKeys, opsPerKey int) *traceBuilder {
	rng := rand.New(rand.NewSource(seed))
	b := &traceBuilder{}
	tid := int32(0)
	for k := 0; k < nKeys; k++ {
		inserted := 0
		for i := 0; i < opsPerKey; i++ {
			tid++
			switch rng.Intn(3) {
			case 0:
				b.call(tid, "Insert", k)
				b.ret(tid, "Insert", true)
				inserted++
			case 1:
				b.call(tid, "Delete", k)
				b.ret(tid, "Delete", inserted > 0)
				if inserted > 0 {
					inserted--
				}
			default:
				b.call(tid, "LookUp", k)
				b.ret(tid, "LookUp", inserted > 0)
			}
		}
	}
	return b
}

// TestParallelComponentsMatchSerial pins the parallel component fan-out
// against the serial search: same verdict, same witness, same component
// count and same states explored, for every pool width — the reduction in
// component order makes scheduling invisible.
func TestParallelComponentsMatchSerial(t *testing.T) {
	sp := For(spec.NewMultiset)
	for seed := int64(1); seed <= 6; seed++ {
		b := randomMultisetTrace(seed, 8, 6)
		ops := Extract(b.entries, sp.IsMutator)
		serial := Check(ops, sp, Options{MaxStates: 1 << 20})
		if serial.Components < 2 {
			t.Fatalf("seed %d: expected a partitioned history, got %d components", seed, serial.Components)
		}
		if !serial.Linearizable {
			t.Fatalf("seed %d: generator produced a non-linearizable sequential history: %s", seed, serial.String())
		}
		for _, workers := range []int{2, 4, 16} {
			par := Check(ops, sp, Options{MaxStates: 1 << 20, Parallel: workers})
			if par.Linearizable != serial.Linearizable || par.Aborted != serial.Aborted {
				t.Fatalf("seed %d, %d workers: verdict diverged: serial %s, parallel %s",
					seed, workers, serial.String(), par.String())
			}
			if par.Components != serial.Components {
				t.Fatalf("seed %d, %d workers: components %d vs %d", seed, workers, par.Components, serial.Components)
			}
			if serial.Linearizable {
				if par.StatesExplored != serial.StatesExplored {
					t.Fatalf("seed %d, %d workers: states %d vs %d — component searches are not independent",
						seed, workers, par.StatesExplored, serial.StatesExplored)
				}
				if !reflect.DeepEqual(par.Witness, serial.Witness) {
					t.Fatalf("seed %d, %d workers: witness diverged", seed, workers)
				}
			}
		}
	}
}

// TestParallelVerdictOnViolation pins the deterministic reduction on a
// failing history: the violation lands on the same component (and FailSeq)
// however many workers run.
func TestParallelVerdictOnViolation(t *testing.T) {
	sp := For(spec.NewMultiset)
	b := randomMultisetTrace(7, 6, 4)
	// Append an impossible observation on its own key: LookUp sees an
	// element that was never inserted.
	b.call(999, "LookUp", 77)
	b.ret(999, "LookUp", true)
	ops := Extract(b.entries, sp.IsMutator)
	serial := Check(ops, sp, Options{MaxStates: 1 << 20})
	if serial.Linearizable || serial.Aborted {
		t.Fatalf("planted violation not caught serially: %s", serial.String())
	}
	for _, workers := range []int{2, 8} {
		par := Check(ops, sp, Options{MaxStates: 1 << 20, Parallel: workers})
		if par.Linearizable || par.Aborted {
			t.Fatalf("%d workers: planted violation lost: %s", workers, par.String())
		}
		if par.FailSeq != serial.FailSeq {
			t.Fatalf("%d workers: FailSeq %d, serial %d", workers, par.FailSeq, serial.FailSeq)
		}
	}
}

// TestParallelSharedBudget pins the shared-budget semantics: a bounded
// parallel search over an oversized history still aborts rather than
// running unbounded.
func TestParallelSharedBudget(t *testing.T) {
	sp := For(spec.NewMultiset)
	b := randomMultisetTrace(11, 8, 8)
	ops := Extract(b.entries, sp.IsMutator)
	par := Check(ops, sp, Options{MaxStates: 3, Parallel: 4})
	if !par.Aborted {
		t.Fatalf("expected an aborted search under a 3-state budget, got %s", par.String())
	}
	// Every component search that starts after exhaustion burns exactly
	// one probe before observing the spent budget, so the overshoot is
	// bounded by the component count.
	if par.StatesExplored > 3+int64(par.Components) {
		t.Fatalf("workers overshot the shared budget: %d states over %d components",
			par.StatesExplored, par.Components)
	}
}
