// Package view implements the hypothetical view variables of Section 5 of
// the paper: canonical representations of abstract data-structure contents,
// computed on both the specification state (viewS) and the replica state
// reconstructed from the log (viewI), and compared at every mutator commit.
//
// A view is a Table: a finite map from canonical keys to canonical values.
// For a multiset, keys are elements and values are multiplicities; for a
// B-link tree, keys are the stored keys and values the stored data; the
// indexing structure, hash functions and so on are abstracted away
// (Section 5: "viewI might be defined as the list of the (key, value)
// pairs, thus abstracting away the structure of the tree").
//
// To avoid re-traversing the entire state at each commit (Section 6.4), a
// Table maintains an order-independent 64-bit fingerprint incrementally:
// each (key, value) pair contributes a mixed hash, and the table fingerprint
// is the XOR of the contributions. Set and Delete update the fingerprint in
// O(1); equality of fingerprints is the fast path of view comparison, and
// Diff provides the exact comparison used for diagnostics and as a
// collision guard in tests. A Table stores values only: no per-pair hash
// is cached, the contribution of an overwritten or deleted pair is
// recomputed from its old value.
//
// Keys come in two disjoint universes. The original string universe
// (Set/Delete/Get) renders arbitrary canonical keys. The integer universe
// (SetInt/DeleteInt/GetInt/SetIntBytes) keys pairs by (Space, int64) —
// a Space is an interned key family like "k" or "h" with a precomputed
// hash seed — so the hot specs and replayers update the fingerprint with
// pure integer mixing: no key-string building, no string hashing, no
// allocation. The two universes never alias: a pair set via SetInt is a
// different pair from one set via Set, even if they render identically.
// Integer-universe values live in two maps: integers in a pointer-free
// map[int64]int64 per Space, byte strings in a map of their own.
//
// Clone is O(1) and copy-on-write, which is what lets the linearizability
// engine use a specification snapshot per search state (internal/linearize:
// a Model is a frozen spec whose fingerprint is its view's Hash).
package view

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Space is an interned integer-key family ("k:" keys of a tree view, "h:"
// handles of a store view). Its hash seed is precomputed at registration,
// so per-update hashing starts from the seed instead of re-mixing the
// family name. The zero Space is not usable; construct with NewSpace.
type Space struct {
	id   uint32
	seed uint64
}

var spaceReg = struct {
	sync.Mutex
	byName map[string]Space
	names  []string // index id-1
}{byName: make(map[string]Space)}

// NewSpace interns a key family by name and returns its Space. Calling it
// again with the same name returns the identical Space, so specs and
// replayers that must agree on a view's key universe simply use the same
// name. Typically called once per package at init time.
func NewSpace(name string) Space {
	spaceReg.Lock()
	defer spaceReg.Unlock()
	if sp, ok := spaceReg.byName[name]; ok {
		return sp
	}
	spaceReg.names = append(spaceReg.names, name)
	sp := Space{id: uint32(len(spaceReg.names)), seed: mix64(strHash(name) ^ 0xa24baed4963ee407)}
	spaceReg.byName[name] = sp
	return sp
}

// Name returns the name the space was registered under.
func (sp Space) Name() string {
	spaceReg.Lock()
	defer spaceReg.Unlock()
	if sp.id == 0 || int(sp.id) > len(spaceReg.names) {
		return ""
	}
	return spaceReg.names[sp.id-1]
}

// ikey is an integer-universe key of a byte-string value.
type ikey struct {
	space uint32
	k     int64
}

// spaceNums holds one Space's integer values. Key and value are plain
// machine words, so the map is pointer-free: the garbage collector never
// scans it, however many copies of it specification snapshots
// (internal/linearize) keep alive.
type spaceNums struct {
	space uint32
	m     map[int64]int64
}

// Table is an incrementally fingerprinted map from canonical keys to
// canonical values. It stores the values and nothing else — a pair's hash
// contribution is recomputed from the old value when the pair is
// overwritten or deleted. The zero value is an empty table; maps are
// allocated on first use.
type Table struct {
	m     map[string]string // string universe
	nums  []spaceNums       // integer universe, integer values, one map per Space in use
	bytes map[ikey][]byte   // integer universe, immutable byte-string values
	hash  uint64

	// shared is set while another Table may hold the same maps: Clone
	// hands them over uncopied, and whichever side writes first copies
	// them (own). A clone that is only read, or whose mutator is rejected
	// or changes nothing, therefore costs no copy. Atomic because a table
	// that is only read and cloned — a frozen specification snapshot in
	// internal/linearize — is cloned from several goroutines.
	shared atomic.Bool
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// mix64 is the splitmix64 finalizer; XOR-aggregation needs well-spread
// bits.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// strHash is FNV-1a with a length prefix (so ("ab","c") cannot collide
// with ("a","bc") when chained).
func strHash[S string | []byte](s S) uint64 {
	h := uint64(offset64)
	n := uint64(len(s))
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(n >> (8 * i)))
		h *= prime64
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// pairHash mixes one string-universe (key, value) pair into a 64-bit
// contribution; contributions of distinct pairs are effectively independent
// and the XOR aggregate detects any single-pair discrepancy.
func pairHash(k, v string) uint64 {
	return mix64(mix64(strHash(k)) ^ strHash(v))
}

// pairHashInt mixes one integer-universe pair from the space's precomputed
// seed: three multiply-xor rounds over machine words, no string traversal.
func pairHashInt(sp Space, key int64, vkind uint64, v uint64) uint64 {
	h := mix64(sp.seed ^ uint64(key))
	return mix64(h ^ vkind*prime64 ^ v)
}

const (
	vkindNum   = 1
	vkindBytes = 2
)

// own makes t the only holder of its maps, copying them if a Clone may
// still hold them. Every write calls it first.
func (t *Table) own() {
	if !t.shared.Load() {
		return
	}
	t.m, t.bytes = maps.Clone(t.m), maps.Clone(t.bytes)
	nums := make([]spaceNums, len(t.nums))
	for i, sn := range t.nums {
		nums[i] = spaceNums{space: sn.space, m: maps.Clone(sn.m)}
	}
	t.nums = nums
	t.shared.Store(false)
}

// Set maps key to value in the string universe, replacing any previous
// value.
func (t *Table) Set(key, value string) {
	t.own()
	old, ok := t.m[key]
	if ok {
		if old == value {
			return
		}
		t.hash ^= pairHash(key, old)
	} else if t.m == nil {
		t.m = make(map[string]string)
	}
	t.m[key] = value
	t.hash ^= pairHash(key, value)
}

// Delete removes key from the string universe. Deleting an absent key is a
// no-op.
func (t *Table) Delete(key string) {
	t.own()
	if old, ok := t.m[key]; ok {
		t.hash ^= pairHash(key, old)
		delete(t.m, key)
	}
}

// Get returns the string-universe value for key and whether it is present.
func (t *Table) Get(key string) (string, bool) {
	v, ok := t.m[key]
	return v, ok
}

// numsOf returns the integer-value map of a space, nil when the table
// holds none. Tables use one or two spaces, so the scan is a compare.
func (t *Table) numsOf(space uint32) map[int64]int64 {
	for i := range t.nums {
		if t.nums[i].space == space {
			return t.nums[i].m
		}
	}
	return nil
}

// dropBytes removes the byte-string value of (sp, key), if any: a pair has
// one value, so an integer written over a byte string replaces it.
func (t *Table) dropBytes(sp Space, key int64) {
	ik := ikey{space: sp.id, k: key}
	if old, ok := t.bytes[ik]; ok {
		t.hash ^= pairHashInt(sp, key, vkindBytes, strHash(old))
		delete(t.bytes, ik)
	}
}

// dropNum is dropBytes for an integer value.
func (t *Table) dropNum(sp Space, key int64) {
	m := t.numsOf(sp.id)
	if old, ok := m[key]; ok {
		t.hash ^= pairHashInt(sp, key, vkindNum, uint64(old))
		delete(m, key)
	}
}

// SetInt maps (sp, key) to an integer value. The fingerprint update is
// allocation-free integer mixing.
func (t *Table) SetInt(sp Space, key, value int64) {
	t.own()
	m := t.numsOf(sp.id)
	if old, ok := m[key]; ok {
		if old == value {
			return
		}
		t.hash ^= pairHashInt(sp, key, vkindNum, uint64(old))
	} else {
		if m == nil {
			m = make(map[int64]int64)
			t.nums = append(t.nums, spaceNums{space: sp.id, m: m})
		}
		if len(t.bytes) != 0 {
			t.dropBytes(sp, key)
		}
	}
	m[key] = value
	t.hash ^= pairHashInt(sp, key, vkindNum, uint64(value))
}

// SetIntBytes maps (sp, key) to a byte-string value. The caller must treat
// b as immutable after the call (the table keeps the reference; no copy is
// made).
func (t *Table) SetIntBytes(sp Space, key int64, b []byte) {
	t.own()
	ik := ikey{space: sp.id, k: key}
	if old, ok := t.bytes[ik]; ok {
		if string(old) == string(b) {
			return
		}
		t.hash ^= pairHashInt(sp, key, vkindBytes, strHash(old))
	} else {
		if t.bytes == nil {
			t.bytes = make(map[ikey][]byte)
		}
		t.dropNum(sp, key)
	}
	t.bytes[ik] = b
	t.hash ^= pairHashInt(sp, key, vkindBytes, strHash(b))
}

// DeleteInt removes (sp, key). Deleting an absent key is a no-op.
func (t *Table) DeleteInt(sp Space, key int64) {
	t.own()
	t.dropNum(sp, key)
	if len(t.bytes) != 0 {
		t.dropBytes(sp, key)
	}
}

// GetInt returns the integer value for (sp, key) and whether it is present
// with an integer value.
func (t *Table) GetInt(sp Space, key int64) (int64, bool) {
	v, ok := t.numsOf(sp.id)[key]
	return v, ok
}

// GetIntBytes returns the byte-string value for (sp, key) and whether it is
// present with a byte-string value.
func (t *Table) GetIntBytes(sp Space, key int64) ([]byte, bool) {
	b, ok := t.bytes[ikey{space: sp.id, k: key}]
	return b, ok
}

// Len reports the number of pairs in the table across both universes.
func (t *Table) Len() int {
	n := len(t.m) + len(t.bytes)
	for _, sn := range t.nums {
		n += len(sn.m)
	}
	return n
}

// Hash returns the order-independent fingerprint of the table contents.
// Equal contents always have equal fingerprints; unequal contents collide
// with probability ~2^-64 per comparison.
func (t *Table) Hash() uint64 { return t.hash }

// Reset removes all pairs.
func (t *Table) Reset() {
	t.m, t.nums, t.bytes, t.hash = nil, nil, nil, 0
	t.shared.Store(false)
}

// Clone returns an independent copy of the table: writes to either are
// invisible to the other. The copy itself is deferred to the first write
// on either side (see shared).
func (t *Table) Clone() *Table {
	if !t.shared.Load() { // do not dirty the line of a table many goroutines clone
		t.shared.Store(true)
	}
	c := &Table{m: t.m, nums: t.nums, bytes: t.bytes, hash: t.hash}
	c.shared.Store(true)
	return c
}

// renderKey gives the canonical rendering of an integer-universe key,
// matching the "name:key" convention of the string universe.
func renderKey(space uint32, k int64) string {
	return Space{id: space}.Name() + ":" + strconv.FormatInt(k, 10)
}

// Keys returns the rendered keys of both universes in sorted order.
func (t *Table) Keys() []string {
	r := t.rendered()
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Equal reports whether the two tables hold identical contents. It first
// compares fingerprints and sizes, then verifies pair by pair, so it never
// reports a false positive even under a fingerprint collision.
func (t *Table) Equal(o *Table) bool {
	if t.hash != o.hash || t.Len() != o.Len() {
		return false
	}
	// Equal sizes with every pair of t present in o leave o no room for
	// an extra pair.
	for k, v := range t.m {
		if ov, ok := o.m[k]; !ok || ov != v {
			return false
		}
	}
	for ik, v := range t.bytes {
		if ov, ok := o.bytes[ik]; !ok || string(ov) != string(v) {
			return false
		}
	}
	for _, sn := range t.nums {
		om := o.numsOf(sn.space)
		for k, v := range sn.m {
			if ov, ok := om[k]; !ok || ov != v {
				return false
			}
		}
	}
	return true
}

// DeltaKind classifies one discrepancy between two tables.
type DeltaKind uint8

const (
	// DeltaMissing: the key is present here but absent in the other table.
	DeltaMissing DeltaKind = iota + 1
	// DeltaExtra: the key is absent here but present in the other table.
	DeltaExtra
	// DeltaChanged: the key is present in both with different values.
	DeltaChanged
)

// Delta is one discrepancy found by Diff.
type Delta struct {
	Kind         DeltaKind
	Key          string
	Value, Other string
}

// String renders the delta for diagnostics.
func (d Delta) String() string {
	switch d.Kind {
	case DeltaMissing:
		return fmt.Sprintf("only in viewI: %s=%s", d.Key, d.Value)
	case DeltaExtra:
		return fmt.Sprintf("only in viewS: %s=%s", d.Key, d.Other)
	case DeltaChanged:
		return fmt.Sprintf("differs at %s: viewI=%s viewS=%s", d.Key, d.Value, d.Other)
	}
	return fmt.Sprintf("delta(%d) %s", d.Kind, d.Key)
}

// Diff returns the discrepancies between t (conventionally viewI) and o
// (conventionally viewS), sorted by key, capped at limit entries (limit <= 0
// means unlimited). An empty result means the tables hold pairwise-equal
// contents within each universe. A pair that one table keeps in the string
// universe and the other in the integer universe is reported as a
// changed/missing rendered key — such a mismatch is a real discrepancy (the
// fingerprints differ too), typically a spec and replayer that disagree on
// a key's universe.
func (t *Table) Diff(o *Table, limit int) []Delta {
	var out []Delta
	tr, or := t.rendered(), o.rendered()
	for k, v := range tr {
		if ov, ok := or[k]; !ok {
			out = append(out, Delta{Kind: DeltaMissing, Key: k, Value: v})
		} else if ov != v {
			out = append(out, Delta{Kind: DeltaChanged, Key: k, Value: v, Other: ov})
		}
	}
	for k, ov := range or {
		if _, ok := tr[k]; !ok {
			out = append(out, Delta{Kind: DeltaExtra, Key: k, Other: ov})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// rendered flattens both universes to rendered (key, value) strings, for
// the cold diagnostic paths (Diff, String). A string-universe pair and an
// integer-universe pair that render to the same key compare by rendered
// value, which keeps diagnostics readable; Equal and the fingerprint remain
// strict about the universes.
func (t *Table) rendered() map[string]string {
	r := make(map[string]string, t.Len())
	for k, v := range t.m {
		r[k] = v
	}
	for _, sn := range t.nums {
		for k, v := range sn.m {
			r[renderKey(sn.space, k)] = strconv.FormatInt(v, 10)
		}
	}
	for ik, b := range t.bytes {
		r[renderKey(ik.space, ik.k)] = fmt.Sprintf("0x%x", b)
	}
	return r
}

// String renders the full table contents in sorted key order.
func (t *Table) String() string {
	r := t.rendered()
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", k, r[k])
	}
	b.WriteByte('}')
	return b.String()
}

// FormatDeltas renders a bounded diff for violation messages.
func FormatDeltas(ds []Delta) string {
	if len(ds) == 0 {
		return "(views equal)"
	}
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = d.String()
	}
	return strings.Join(parts, "; ")
}
