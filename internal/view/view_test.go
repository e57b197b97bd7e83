package view

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmptyTable(t *testing.T) {
	tb := NewTable()
	if tb.Len() != 0 || tb.Hash() != 0 {
		t.Fatalf("empty table: len %d hash %x", tb.Len(), tb.Hash())
	}
	if _, ok := tb.Get("x"); ok {
		t.Fatal("Get on empty table returned a value")
	}
	if s := tb.String(); s != "{}" {
		t.Fatalf("empty table renders as %q", s)
	}
}

func TestSetGetDelete(t *testing.T) {
	tb := NewTable()
	tb.Set("a", "1")
	tb.Set("b", "2")
	if v, ok := tb.Get("a"); !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	tb.Set("a", "3")
	if v, _ := tb.Get("a"); v != "3" {
		t.Fatalf("overwrite lost: %q", v)
	}
	tb.Delete("a")
	if _, ok := tb.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	if tb.Len() != 1 {
		t.Fatalf("len after delete: %d", tb.Len())
	}
	// Deleting an absent key is a no-op.
	h := tb.Hash()
	tb.Delete("zzz")
	if tb.Hash() != h {
		t.Fatal("deleting an absent key changed the hash")
	}
}

func TestHashOrderIndependence(t *testing.T) {
	a := NewTable()
	b := NewTable()
	pairs := [][2]string{{"x", "1"}, {"y", "2"}, {"z", "3"}, {"w", "4"}}
	for _, p := range pairs {
		a.Set(p[0], p[1])
	}
	for i := len(pairs) - 1; i >= 0; i-- {
		b.Set(pairs[i][0], pairs[i][1])
	}
	if a.Hash() != b.Hash() || !a.Equal(b) {
		t.Fatal("insertion order affected the fingerprint")
	}
}

func TestHashReturnsToZero(t *testing.T) {
	tb := NewTable()
	tb.Set("a", "1")
	tb.Set("b", "2")
	tb.Delete("a")
	tb.Delete("b")
	if tb.Hash() != 0 || tb.Len() != 0 {
		t.Fatalf("emptied table: hash %x len %d", tb.Hash(), tb.Len())
	}
}

func TestSetSameValueIsStable(t *testing.T) {
	tb := NewTable()
	tb.Set("k", "v")
	h := tb.Hash()
	tb.Set("k", "v")
	if tb.Hash() != h {
		t.Fatal("re-setting the same value changed the hash")
	}
}

func TestLengthPrefixPreventsConcatenationCollisions(t *testing.T) {
	a := NewTable()
	b := NewTable()
	a.Set("ab", "c")
	b.Set("a", "bc")
	if a.Hash() == b.Hash() {
		t.Fatal(`("ab","c") and ("a","bc") collide`)
	}
}

func TestEqualDetectsValueDifference(t *testing.T) {
	a := NewTable()
	b := NewTable()
	a.Set("k", "1")
	b.Set("k", "2")
	if a.Equal(b) {
		t.Fatal("tables with different values compare equal")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := NewTable()
	a.Set("k", "1")
	c := a.Clone()
	a.Set("k", "2")
	if v, _ := c.Get("k"); v != "1" {
		t.Fatalf("clone tracked the original: %q", v)
	}
	if !c.Equal(c.Clone()) {
		t.Fatal("clone of clone differs")
	}
}

// TestIntegerUniverse covers the (Space, int64) pairs: full-width keys,
// one value per pair whichever kind was written last, and rendering.
func TestIntegerUniverse(t *testing.T) {
	a, b := NewSpace("view_test.a"), NewSpace("view_test.b")
	tb := NewTable()
	keys := []int64{0, -1, 1 << 40, math.MaxInt64, math.MinInt64}
	for i, k := range keys {
		tb.SetInt(a, k, int64(i))
		tb.SetInt(b, k, int64(-i))
	}
	for i, k := range keys {
		if v, ok := tb.GetInt(a, k); !ok || v != int64(i) {
			t.Fatalf("a:%d = %d, %v", k, v, ok)
		}
		if v, ok := tb.GetInt(b, k); !ok || v != int64(-i) {
			t.Fatalf("b:%d = %d, %v", k, v, ok)
		}
	}
	if tb.Len() != 2*len(keys) {
		t.Fatalf("len %d", tb.Len())
	}

	// A byte string written over an integer replaces it, and back.
	tb.SetIntBytes(a, 0, []byte{0xab})
	if _, ok := tb.GetInt(a, 0); ok {
		t.Fatal("integer value survived a byte-string write to the same pair")
	}
	if v, ok := tb.GetIntBytes(a, 0); !ok || string(v) != "\xab" || tb.Len() != 2*len(keys) {
		t.Fatalf("a:0 = %x, %v, len %d", v, ok, tb.Len())
	}
	if got := tb.rendered()["view_test.a:0"]; got != "0xab" {
		t.Fatalf("rendered %q", got)
	}
	tb.SetInt(a, 0, 7)
	if _, ok := tb.GetIntBytes(a, 0); ok || tb.Len() != 2*len(keys) {
		t.Fatal("byte-string value survived an integer write to the same pair")
	}

	// The fingerprint is a function of the contents, not of the history.
	rebuilt := NewTable()
	for i, k := range keys {
		rebuilt.SetInt(b, k, int64(-i))
		rebuilt.SetInt(a, k, int64(i))
	}
	rebuilt.SetInt(a, 0, 7)
	if tb.Hash() != rebuilt.Hash() || !tb.Equal(rebuilt) || len(tb.Diff(rebuilt, 0)) != 0 {
		t.Fatalf("same contents, different tables: %s vs %s", tb, rebuilt)
	}
	rebuilt.SetInt(b, 1<<40, 99)
	if tb.Hash() == rebuilt.Hash() || tb.Equal(rebuilt) || len(tb.Diff(rebuilt, 0)) != 1 {
		t.Fatal("a changed value went unnoticed")
	}
	for _, k := range keys {
		tb.DeleteInt(a, k)
		tb.DeleteInt(b, k)
	}
	if tb.Hash() != 0 || tb.Len() != 0 {
		t.Fatalf("deleting every pair left hash %#x, len %d", tb.Hash(), tb.Len())
	}
}

// TestCloneCopiesOnWrite: a clone shares storage until either side writes,
// in every universe, and the first write on either side separates them.
func TestCloneCopiesOnWrite(t *testing.T) {
	sp := NewSpace("view_test.a")
	src := NewTable()
	src.Set("s", "1")
	src.SetInt(sp, 1, 10)
	src.SetIntBytes(sp, 2, []byte{2})
	want := src.String()
	h := src.Hash()

	c1, c2 := src.Clone(), src.Clone()
	c1.Set("s", "2")
	c1.SetInt(sp, 1, 11)
	c1.SetIntBytes(sp, 2, []byte{3})
	c1.DeleteInt(sp, 1)
	if src.String() != want || src.Hash() != h || c2.String() != want || c2.Hash() != h {
		t.Fatalf("writes to a clone leaked: source %s, sibling %s", src, c2)
	}
	src.SetInt(sp, 3, 30)
	src.Delete("s")
	if c2.String() != want || c2.Hash() != h {
		t.Fatalf("writes to the source leaked into a clone: %s", c2)
	}
	c3 := c2.Clone()
	c2.Reset()
	if c3.String() != want || c3.Hash() != h || c2.Len() != 0 {
		t.Fatalf("reset leaked into a clone: %s", c3)
	}

	// A table nobody writes may be cloned from several goroutines at once
	// (run under -race).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 100; i++ {
				c := c3.Clone()
				c.SetInt(sp, i, i)
			}
		}()
	}
	wg.Wait()
	if c3.String() != want {
		t.Fatalf("concurrent clones changed their source: %s", c3)
	}
}

func TestKeysSorted(t *testing.T) {
	tb := NewTable()
	for _, k := range []string{"m", "a", "z", "b"} {
		tb.Set(k, "v")
	}
	keys := tb.Keys()
	want := []string{"a", "b", "m", "z"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v", keys)
		}
	}
}

func TestDiffClassification(t *testing.T) {
	vi := NewTable() // conventionally viewI
	vs := NewTable() // conventionally viewS
	vi.Set("only-i", "1")
	vs.Set("only-s", "2")
	vi.Set("both", "x")
	vs.Set("both", "y")
	ds := vi.Diff(vs, 0)
	if len(ds) != 3 {
		t.Fatalf("expected 3 deltas, got %v", ds)
	}
	kinds := map[string]DeltaKind{}
	for _, d := range ds {
		kinds[d.Key] = d.Kind
	}
	if kinds["only-i"] != DeltaMissing || kinds["only-s"] != DeltaExtra || kinds["both"] != DeltaChanged {
		t.Fatalf("wrong classification: %v", ds)
	}
	// Deltas are sorted by key and the rendering mentions both sides.
	if ds[0].Key > ds[1].Key || ds[1].Key > ds[2].Key {
		t.Fatalf("deltas unsorted: %v", ds)
	}
	if !strings.Contains(FormatDeltas(ds), "viewS") {
		t.Fatalf("rendering: %s", FormatDeltas(ds))
	}
}

func TestDiffLimit(t *testing.T) {
	a := NewTable()
	b := NewTable()
	for i := 0; i < 10; i++ {
		a.Set(fmt.Sprintf("k%02d", i), "v")
	}
	if ds := a.Diff(b, 3); len(ds) != 3 {
		t.Fatalf("limit ignored: %d deltas", len(ds))
	}
	if ds := a.Diff(b, 0); len(ds) != 10 {
		t.Fatalf("limit 0 should be unlimited: %d deltas", len(ds))
	}
}

func TestFormatDeltasEmpty(t *testing.T) {
	if s := FormatDeltas(nil); s != "(views equal)" {
		t.Fatalf("empty deltas render as %q", s)
	}
}

func TestReset(t *testing.T) {
	tb := NewTable()
	tb.Set("a", "1")
	tb.Reset()
	if tb.Len() != 0 || tb.Hash() != 0 {
		t.Fatal("reset did not clear the table")
	}
}

// TestQuickIncrementalHashMatchesRebuild is the property at the heart of
// Section 6.4's incremental computation: applying any sequence of sets and
// deletes incrementally yields the same fingerprint as building a fresh
// table with the final contents.
func TestQuickIncrementalHashMatchesRebuild(t *testing.T) {
	type op struct {
		Del bool
		K   uint8
		V   uint8
	}
	f := func(ops []op) bool {
		inc := NewTable()
		model := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.K%32)
			if o.Del {
				inc.Delete(k)
				delete(model, k)
			} else {
				v := fmt.Sprintf("v%d", o.V)
				inc.Set(k, v)
				model[k] = v
			}
		}
		rebuilt := NewTable()
		for k, v := range model {
			rebuilt.Set(k, v)
		}
		return inc.Hash() == rebuilt.Hash() && inc.Equal(rebuilt) && inc.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEqualIffNoDiff: Equal and an empty Diff agree for arbitrary
// table pairs.
func TestQuickEqualIffNoDiff(t *testing.T) {
	f := func(aPairs, bPairs map[uint8]uint8, share bool) bool {
		a := NewTable()
		b := NewTable()
		for k, v := range aPairs {
			a.Set(fmt.Sprintf("k%d", k), fmt.Sprintf("v%d", v))
		}
		src := bPairs
		if share {
			src = aPairs // force the equal case to be exercised
		}
		for k, v := range src {
			b.Set(fmt.Sprintf("k%d", k), fmt.Sprintf("v%d", v))
		}
		return a.Equal(b) == (len(a.Diff(b, 0)) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSingleDeltaChangesHash: any single-pair change to a random table
// changes its fingerprint (the detection property view comparison relies
// on).
func TestQuickSingleDeltaChangesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		tb := NewTable()
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			tb.Set(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", rng.Intn(100)))
		}
		h := tb.Hash()
		k := fmt.Sprintf("k%d", rng.Intn(n))
		old, _ := tb.Get(k)
		switch rng.Intn(2) {
		case 0:
			tb.Delete(k)
		case 1:
			tb.Set(k, old+"'")
		}
		if tb.Hash() == h {
			t.Fatalf("trial %d: single-pair change left the fingerprint unchanged", trial)
		}
	}
}

func BenchmarkSet(b *testing.B) {
	tb := NewTable()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Set(keys[i%len(keys)], "v")
	}
}

func BenchmarkHashCompare(b *testing.B) {
	a := NewTable()
	c := NewTable()
	for i := 0; i < 1024; i++ {
		k := fmt.Sprintf("k%d", i)
		a.Set(k, "v")
		c.Set(k, "v")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.Hash() != c.Hash() {
			b.Fatal("hashes differ")
		}
	}
}

func BenchmarkDeepEqual(b *testing.B) {
	a := NewTable()
	c := NewTable()
	for i := 0; i < 1024; i++ {
		k := fmt.Sprintf("k%d", i)
		a.Set(k, "v")
		c.Set(k, "v")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !a.Equal(c) {
			b.Fatal("tables differ")
		}
	}
}
