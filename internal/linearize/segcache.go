package linearize

import (
	"encoding/binary"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/event"
)

// The segment memo cache persists interval-closure results across
// segments, checkers and sessions. A fleet box runs hundreds of sessions
// streaming structurally identical histories (load generators replay one
// recorded log; production producers repeat the same access patterns), so
// the same (frontier state, segment shape) search recurs constantly. The
// closure of an interval is a pure function of the start state and the
// segment's observable content — methods, arguments, returns and the
// real-time overlap structure, nothing else — so its reachable end-state
// set can be reused wherever that exact pair recurs. Models are immutable
// by contract (Step mutates a private copy and publishes it afterwards;
// Check and Fingerprint write nothing — spec's conformance tests hold the
// specifications to that under the race detector), which is what makes
// sharing the cached states across goroutines safe.
//
// Aborted searches are never cached: an abort reflects the budget, not
// the history, and a different caller may have budget to finish it.
// Definite no-linearization results (an empty end set) are cached — they
// are as deterministic as the positive ones.

// segKey identifies one interval-closure search exactly: the spec, the
// start state's fingerprint, and the canonical segment signature.
type segKey struct {
	spec  string
	start uint64
	sig   string
}

// maxSegCacheEntries bounds the cache; at the cap, new results are simply
// not inserted (lookups still hit the resident set, which under the
// repetitive workloads the cache targets is the hot set anyway).
const maxSegCacheEntries = 1 << 16

var segCache = struct {
	mu sync.RWMutex
	m  map[segKey][]Model

	lookups atomic.Int64
	hits    atomic.Int64
}{m: make(map[segKey][]Model)}

// segLookup returns the cached reachable end states for one search, if
// present.
func segLookup(key segKey) ([]Model, bool) {
	segCache.lookups.Add(1)
	segCache.mu.RLock()
	ends, ok := segCache.m[key]
	segCache.mu.RUnlock()
	if ok {
		segCache.hits.Add(1)
	}
	return ends, ok
}

// segStore records a completed (never aborted) search result.
func segStore(key segKey, ends []Model) {
	segCache.mu.Lock()
	if len(segCache.m) < maxSegCacheEntries {
		segCache.m[key] = ends
	}
	segCache.mu.Unlock()
}

// SegCacheStats is the cache's observable state: Lookups and Hits count
// interval-closure searches asked of the cache and answered by it
// (hit-rate = Hits/Lookups); Entries is the resident result count.
type SegCacheStats struct {
	Lookups int64
	Hits    int64
	Entries int
}

// SegmentCacheStats snapshots the process-wide segment memo cache.
func SegmentCacheStats() SegCacheStats {
	segCache.mu.RLock()
	entries := len(segCache.m)
	segCache.mu.RUnlock()
	return SegCacheStats{
		Lookups: segCache.lookups.Load(),
		Hits:    segCache.hits.Load(),
		Entries: entries,
	}
}

// ResetSegmentCache clears the cache and its counters (tests and
// benchmark isolation).
func ResetSegmentCache() {
	segCache.mu.Lock()
	segCache.m = make(map[segKey][]Model)
	segCache.mu.Unlock()
	segCache.lookups.Store(0)
	segCache.hits.Store(0)
}

// segmentSignature renders a segment (sorted by call sequence) in a
// canonical form: each op's method, arguments, return and mutator class
// via the event value formatter, plus the rank-normalized call/return
// positions. Ranks rather than raw sequence numbers make the signature
// position-independent — the same overlap pattern at log offset 40 and
// 40000 is one key — and thread ids are omitted because linearizability
// only constrains real-time order, not which thread ran an op.
func segmentSignature(seg []Op) string {
	seqs := make([]int64, 0, 2*len(seg))
	for _, op := range seg {
		seqs = append(seqs, op.CallSeq, op.RetSeq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	rank := make(map[int64]uint64, len(seqs))
	for i, s := range seqs {
		if _, ok := rank[s]; !ok {
			rank[s] = uint64(i)
		}
	}

	var b strings.Builder
	var tmp [2 * binary.MaxVarintLen64]byte
	for _, op := range seg {
		b.WriteString(op.Method)
		b.WriteByte(0)
		for _, a := range op.Args {
			b.WriteString(event.Format(a))
			b.WriteByte(1)
		}
		b.WriteByte(2)
		b.WriteString(event.Format(op.Ret))
		if op.Mutator {
			b.WriteByte(3)
		} else {
			b.WriteByte(4)
		}
		n := binary.PutUvarint(tmp[:], rank[op.CallSeq])
		n += binary.PutUvarint(tmp[n:], rank[op.RetSeq])
		b.Write(tmp[:n])
		b.WriteByte(5)
	}
	return b.String()
}
