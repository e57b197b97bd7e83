package linearize

import (
	"math/rand"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/spec"
)

// costRE matches the search-cost diagnostic inside a violation detail; a
// cache hit legitimately reports fewer configurations searched than the
// cold search it replaced, so parity comparisons blank the figure.
var costRE = regexp.MustCompile(`\d+ configurations searched`)

func normalized(s core.Summary) core.Summary {
	s.FirstViolation = costRE.ReplaceAllString(s.FirstViolation, "N configurations searched")
	return s
}

// TestSegmentCacheVerdictParity pins the cache's one obligation: a warm
// cache must produce byte-identical verdicts to a cold one, on clean and
// violating histories alike, with the brute oracle agreeing throughout.
func TestSegmentCacheVerdictParity(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	histories := make([][]event.Entry, 0, 40)
	for i := 0; i < 40; i++ {
		histories = append(histories, randomMultisetHistory(r, 3, 4))
	}

	ResetSegmentCache()
	cold := make([]core.Summary, len(histories))
	for i, h := range histories {
		cold[i] = normalized(CheckEntries(h, For(spec.NewMultiset), Options{MaxStates: 1 << 22}).Summary())
		br := CheckBruteTrace(h, For(spec.NewMultiset), 1<<22)
		if !br.Aborted && br.Linearizable == (cold[i].TotalViolations > 0) {
			t.Fatalf("history %d: brute (lin=%v) disagrees with cold streaming verdict %+v",
				i, br.Linearizable, cold[i])
		}
	}
	if st := SegmentCacheStats(); st.Lookups == 0 {
		t.Fatal("interval closures never consulted the cache")
	}

	// Warm pass: same histories, now answered (at least partly) from the
	// cache — every summary must be identical to its cold twin.
	before := SegmentCacheStats()
	for i, h := range histories {
		warm := normalized(CheckEntries(h, For(spec.NewMultiset), Options{MaxStates: 1 << 22}).Summary())
		if warm != cold[i] {
			t.Fatalf("history %d verdict changed under a warm cache:\ncold: %+v\nwarm: %+v", i, cold[i], warm)
		}
	}
	after := SegmentCacheStats()
	if after.Hits <= before.Hits {
		t.Fatalf("warm pass never hit the cache: %+v -> %+v", before, after)
	}
}

// TestSegmentCachePositionIndependence pins the rank-normalized
// signature: the same (start state, segment shape) pair recurring later
// in one history is answered from the cache despite different absolute
// sequence numbers.
func TestSegmentCachePositionIndependence(t *testing.T) {
	ResetSegmentCache()
	var b traceBuilder
	const rounds = 12
	for i := 0; i < rounds; i++ {
		// Insert(1)/Delete(1) returns the model to the initial state, so
		// every round reproduces the same two (state, segment) pairs.
		b.call(1, "Insert", 1)
		b.ret(1, "Insert", true)
		b.call(1, "Delete", 1)
		b.ret(1, "Delete", true)
	}
	rep := CheckEntries(b.entries, For(spec.NewMultiset), Options{})
	if !rep.Ok() {
		t.Fatalf("clean alternating trace flagged: %s", rep)
	}
	st := SegmentCacheStats()
	// 2*rounds closures, only two distinct searches: everything after the
	// first round hits.
	if st.Entries != 2 {
		t.Fatalf("distinct cached searches = %d, want 2 (%+v)", st.Entries, st)
	}
	if want := int64(2*rounds - 2); st.Hits != want {
		t.Fatalf("hits = %d, want %d (%+v)", st.Hits, want, st)
	}
}

// TestSegmentCacheCachesRefutations pins that a definite no-linearization
// result is cached and still refutes on the warm path.
func TestSegmentCacheCachesRefutations(t *testing.T) {
	ResetSegmentCache()
	build := func() []event.Entry {
		var b traceBuilder
		b.call(1, "Insert", 1)
		b.ret(1, "Insert", true)
		b.call(1, "LookUp", 7) // never inserted
		b.ret(1, "LookUp", true)
		return b.entries
	}
	cold := normalized(CheckEntries(build(), For(spec.NewMultiset), Options{}).Summary())
	if cold.TotalViolations == 0 {
		t.Fatal("impossible LookUp accepted cold")
	}
	before := SegmentCacheStats()
	warm := normalized(CheckEntries(build(), For(spec.NewMultiset), Options{}).Summary())
	if warm != cold {
		t.Fatalf("refutation changed under a warm cache:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	if st := SegmentCacheStats(); st.Hits <= before.Hits {
		t.Fatalf("refuting closure never hit the cache: %+v -> %+v", before, st)
	}
}

// TestSegmentSignatureSeparatesOverlap pins that the signature encodes
// the real-time overlap structure, not just the op multiset: sequential
// and overlapped executions of the same two ops must not share a cache
// entry (their reachable end-state sets differ).
func TestSegmentSignatureSeparatesOverlap(t *testing.T) {
	seq := []Op{
		{Method: "Insert", Args: []event.Value{1}, Ret: true, Mutator: true, CallSeq: 1, RetSeq: 2},
		{Method: "Delete", Args: []event.Value{1}, Ret: true, Mutator: true, CallSeq: 3, RetSeq: 4},
	}
	over := []Op{
		{Method: "Insert", Args: []event.Value{1}, Ret: true, Mutator: true, CallSeq: 1, RetSeq: 3},
		{Method: "Delete", Args: []event.Value{1}, Ret: true, Mutator: true, CallSeq: 2, RetSeq: 4},
	}
	if segmentSignature(seq) == segmentSignature(over) {
		t.Fatal("sequential and overlapped segments share a signature")
	}
	// Shifting absolute positions preserves the signature.
	shifted := []Op{
		{Method: "Insert", Args: []event.Value{1}, Ret: true, Mutator: true, CallSeq: 101, RetSeq: 103},
		{Method: "Delete", Args: []event.Value{1}, Ret: true, Mutator: true, CallSeq: 102, RetSeq: 104},
	}
	if segmentSignature(over) != segmentSignature(shifted) {
		t.Fatal("signature depends on absolute sequence numbers")
	}
}
