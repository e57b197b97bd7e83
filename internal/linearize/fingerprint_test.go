package linearize

import (
	"fmt"
	"testing"

	"repro/internal/event"
	"repro/internal/spec"
)

// The engine's memoization and the streaming frontier both treat equal
// fingerprints as equal states (memo entries compare the done-set exactly,
// but distinct states folding to one fingerprint would still merge frontier
// states and could mask a violation). The derived model's fingerprint is
// the specification's view hash, so the contract is that the view
// determines the state, collision-free in practice; these property tests
// enumerate well over 10^5 distinct small states per type — the regime
// real traces live in — and pin zero collisions. If either ever fails, the
// view hash must move to a keyed hash (hash/maphash) with explicit
// collision handling.

// TestMultisetFingerprintCollisionFree enumerates every multiset over
// elements 0..5 with per-element counts 0..6 (7^6 = 117,649 distinct
// states) and requires all fingerprints distinct.
func TestMultisetFingerprintCollisionFree(t *testing.T) {
	const elems = 6
	const maxCount = 6 // counts 0..6 -> 7 choices per element
	multiset := For(spec.NewMultiset)
	seen := make(map[uint64]string, 120_000)
	counts := make([]int, elems)
	total := 0
	for {
		m := multiset.New()
		for x := 0; x < elems; x++ {
			for c := 0; c < counts[x]; c++ {
				next, ok := m.Step(Op{Method: "Insert", Args: []event.Value{x}, Ret: true, Mutator: true})
				if !ok {
					t.Fatalf("insert rejected while enumerating state %v", counts)
				}
				m = next
			}
		}
		canon := fmt.Sprint(counts)
		fp := m.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("fingerprint collision: states %s and %s both hash to %#x", prev, canon, fp)
		}
		seen[fp] = canon
		total++
		// Advance the mixed-radix counter.
		i := 0
		for ; i < elems; i++ {
			counts[i]++
			if counts[i] <= maxCount {
				break
			}
			counts[i] = 0
		}
		if i == elems {
			break
		}
	}
	if total < 100_000 {
		t.Fatalf("only %d states enumerated; the property needs >= 10^5", total)
	}
	t.Logf("%d distinct multiset states, zero fingerprint collisions", total)
}

// TestKVFingerprintCollisionFree enumerates every partial map from keys
// 0..5 to values 1..6 (absent = 0; 7^6 = 117,649 distinct states) and
// requires all fingerprints distinct.
func TestKVFingerprintCollisionFree(t *testing.T) {
	const keys = 6
	const vals = 6 // 0 = absent, 1..6 present
	kv := For(spec.NewKV)
	seen := make(map[uint64]string, 120_000)
	state := make([]int, keys)
	total := 0
	for {
		m := kv.New()
		for k := 0; k < keys; k++ {
			if state[k] == 0 {
				continue
			}
			next, ok := m.Step(Op{Method: "Insert", Args: []event.Value{k, state[k]}, Ret: nil, Mutator: true})
			if !ok {
				t.Fatalf("insert rejected while enumerating state %v", state)
			}
			m = next
		}
		canon := fmt.Sprint(state)
		fp := m.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("fingerprint collision: states %s and %s both hash to %#x", prev, canon, fp)
		}
		seen[fp] = canon
		total++
		i := 0
		for ; i < keys; i++ {
			state[i]++
			if state[i] <= vals {
				break
			}
			state[i] = 0
		}
		if i == keys {
			break
		}
	}
	if total < 100_000 {
		t.Fatalf("only %d states enumerated; the property needs >= 10^5", total)
	}
	t.Logf("%d distinct kv states, zero fingerprint collisions", total)
}
