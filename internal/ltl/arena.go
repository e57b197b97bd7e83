package ltl

import (
	"encoding/binary"
	"sort"
	"strings"
)

// arena hash-conses formula nodes and memoizes progression steps. One arena
// backs one property Set; it is not safe for concurrent use (an EntryChecker
// is driven by a single goroutine, per the core contract).
type arena struct {
	nodes   []*Node
	dedup   map[string]*Node // structural key -> node
	atoms   []*Atom          // atom universe, deduplicated by canonical source
	atomIdx map[string]int
	tt, ff  *Node

	memo map[progKey]*Node // (residual id, valuation) -> next residual
}

// progKey keys one memoized progression step: the residual node and the
// truth valuation of the whole atom universe at the current entry.
type progKey struct {
	id  uint32
	val string
}

// memoCap bounds the progression memo. The reachable state space is finite
// (boolean combinations over the formula closure × observed valuations) and
// small in practice; the cap is a backstop against pathological formulas,
// and clearing it only costs recomputation.
const memoCap = 1 << 20

func newArena() *arena {
	a := &arena{
		dedup:   make(map[string]*Node),
		atomIdx: make(map[string]int),
		memo:    make(map[progKey]*Node),
	}
	a.tt = a.cons(OpTrue, 0, nil)
	a.ff = a.cons(OpFalse, 0, nil)
	return a
}

// cons interns a node by structural identity.
func (a *arena) cons(op Op, atom int, kids []*Node) *Node {
	var key []byte
	key = append(key, byte(op))
	key = binary.AppendUvarint(key, uint64(atom))
	for _, k := range kids {
		key = binary.AppendUvarint(key, uint64(k.id))
	}
	if n, ok := a.dedup[string(key)]; ok {
		return n
	}
	n := &Node{id: uint32(len(a.nodes)), op: op, atom: atom, kids: kids}
	a.nodes = append(a.nodes, n)
	a.dedup[string(key)] = n
	return n
}

// internAtom adds an atom to the universe, deduplicating by canonical
// source so identical predicates share one valuation bit.
func (a *arena) internAtom(at *Atom) *Node {
	key := at.String()
	if i, ok := a.atomIdx[key]; ok {
		return a.cons(OpAtom, i, nil)
	}
	i := len(a.atoms)
	a.atoms = append(a.atoms, at)
	a.atomIdx[key] = i
	return a.cons(OpAtom, i, nil)
}

// Smart constructors. These apply a fixed simplification rule set; the
// naive reference evaluator (naive_test.go) implements the SAME rules
// independently, and the differential test pins the two against each other.
// The rules:
//
//	not:  !true = false, !false = true, !!f = f
//	and:  flatten nested ands; drop true; any false -> false; sort and
//	      deduplicate operands; f ∧ !f -> false; 0 operands -> true,
//	      1 operand -> itself
//	or:   the boolean dual
//	next: X true = true, X false = false
//	until:   f U true = true, f U false = false, false U g = g,
//	         true U g = F g, f U f = f
//	release: f R true = true, f R false = false, true R g = g,
//	         false R g = G g, f R f = f
//	F: F true = true, F false = false, F F f = F f
//	G: G true = true, G false = false, G G f = G f

func (a *arena) newNot(x *Node) *Node {
	switch {
	case x == a.tt:
		return a.ff
	case x == a.ff:
		return a.tt
	case x.op == OpNot:
		return x.kids[0]
	}
	return a.cons(OpNot, 0, []*Node{x})
}

// gather flattens same-op operands into out, skipping the identity element.
func gather(op Op, identity *Node, xs []*Node, out []*Node) []*Node {
	for _, x := range xs {
		if x == identity {
			continue
		}
		if x.op == op {
			out = gather(op, identity, x.kids, out)
			continue
		}
		out = append(out, x)
	}
	return out
}

// normalize sorts by node id, deduplicates, and reports whether the set
// contains a complementary pair f, !f.
func normalize(kids []*Node) (_ []*Node, complement bool) {
	sort.Slice(kids, func(i, j int) bool { return kids[i].id < kids[j].id })
	uniq := kids[:0]
	for i, k := range kids {
		if i > 0 && k == kids[i-1] {
			continue
		}
		uniq = append(uniq, k)
	}
	present := make(map[uint32]bool, len(uniq))
	for _, k := range uniq {
		present[k.id] = true
	}
	for _, k := range uniq {
		if k.op == OpNot && present[k.kids[0].id] {
			return uniq, true
		}
	}
	return uniq, false
}

func (a *arena) newAnd(xs ...*Node) *Node {
	kids := gather(OpAnd, a.tt, xs, make([]*Node, 0, len(xs)))
	for _, k := range kids {
		if k == a.ff {
			return a.ff
		}
	}
	kids, complement := normalize(kids)
	if complement {
		return a.ff
	}
	switch len(kids) {
	case 0:
		return a.tt
	case 1:
		return kids[0]
	}
	return a.cons(OpAnd, 0, kids)
}

func (a *arena) newOr(xs ...*Node) *Node {
	kids := gather(OpOr, a.ff, xs, make([]*Node, 0, len(xs)))
	for _, k := range kids {
		if k == a.tt {
			return a.tt
		}
	}
	kids, complement := normalize(kids)
	if complement {
		return a.tt
	}
	switch len(kids) {
	case 0:
		return a.ff
	case 1:
		return kids[0]
	}
	return a.cons(OpOr, 0, kids)
}

func (a *arena) newNext(x *Node) *Node {
	if x == a.tt || x == a.ff {
		return x
	}
	return a.cons(OpNext, 0, []*Node{x})
}

func (a *arena) newUntil(f, g *Node) *Node {
	switch {
	case g == a.tt || g == a.ff:
		return g
	case f == a.ff:
		return g
	case f == a.tt:
		return a.newEventually(g)
	case f == g:
		return f
	}
	return a.cons(OpUntil, 0, []*Node{f, g})
}

func (a *arena) newRelease(f, g *Node) *Node {
	switch {
	case g == a.tt || g == a.ff:
		return g
	case f == a.tt:
		return g
	case f == a.ff:
		return a.newAlways(g)
	case f == g:
		return f
	}
	return a.cons(OpRelease, 0, []*Node{f, g})
}

func (a *arena) newEventually(x *Node) *Node {
	if x == a.tt || x == a.ff || x.op == OpEventually {
		return x
	}
	return a.cons(OpEventually, 0, []*Node{x})
}

func (a *arena) newAlways(x *Node) *Node {
	if x == a.tt || x == a.ff || x.op == OpAlways {
		return x
	}
	return a.cons(OpAlways, 0, []*Node{x})
}

// prog rewrites the residual n by one trace step under the atom valuation
// val (bitset over the arena's atom universe; key is its string form, the
// memo key). The result is the residual that must hold over the rest of
// the trace.
func (a *arena) prog(n *Node, val []uint64, key string) *Node {
	switch n.op {
	case OpTrue, OpFalse:
		return n
	case OpAtom:
		if val[n.atom>>6]&(1<<(uint(n.atom)&63)) != 0 {
			return a.tt
		}
		return a.ff
	}
	mk := progKey{n.id, key}
	if r, ok := a.memo[mk]; ok {
		return r
	}
	var r *Node
	switch n.op {
	case OpNot:
		r = a.newNot(a.prog(n.kids[0], val, key))
	case OpAnd:
		ks := make([]*Node, len(n.kids))
		for i, k := range n.kids {
			ks[i] = a.prog(k, val, key)
		}
		r = a.newAnd(ks...)
	case OpOr:
		ks := make([]*Node, len(n.kids))
		for i, k := range n.kids {
			ks[i] = a.prog(k, val, key)
		}
		r = a.newOr(ks...)
	case OpNext:
		r = n.kids[0]
	case OpUntil:
		f, g := n.kids[0], n.kids[1]
		r = a.newOr(a.prog(g, val, key), a.newAnd(a.prog(f, val, key), n))
	case OpRelease:
		f, g := n.kids[0], n.kids[1]
		r = a.newAnd(a.prog(g, val, key), a.newOr(a.prog(f, val, key), n))
	case OpEventually:
		r = a.newOr(a.prog(n.kids[0], val, key), n)
	case OpAlways:
		r = a.newAnd(a.prog(n.kids[0], val, key), n)
	default:
		panic("ltl: bad op") // unreachable: nodes come from the constructors
	}
	if len(a.memo) >= memoCap {
		a.memo = make(map[progKey]*Node)
	}
	a.memo[mk] = r
	return r
}

// Printing. The printer is canonical: parsing its output through the same
// arena yields the identical node, and through a fresh arena a structurally
// equal one (the fuzz target pins this round trip).

// opPrec orders operators for minimal parenthesization: || < && < U/R <
// unary < primary.
func opPrec(op Op) int {
	switch op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpUntil, OpRelease:
		return 3
	case OpNot, OpNext, OpEventually, OpAlways:
		return 4
	}
	return 5
}

func (a *arena) format(b *strings.Builder, n *Node, parentPrec int) {
	prec := opPrec(n.op)
	if prec < parentPrec {
		b.WriteByte('(')
		defer b.WriteByte(')')
	}
	switch n.op {
	case OpTrue:
		b.WriteString("true")
	case OpFalse:
		b.WriteString("false")
	case OpAtom:
		b.WriteString(a.atoms[n.atom].String())
	case OpNot:
		b.WriteByte('!')
		a.format(b, n.kids[0], prec+1)
	case OpNext, OpEventually, OpAlways:
		switch n.op {
		case OpNext:
			b.WriteString("X ")
		case OpEventually:
			b.WriteString("F ")
		case OpAlways:
			b.WriteString("G ")
		}
		a.format(b, n.kids[0], prec)
	case OpUntil, OpRelease:
		// Right-associative: the left side needs parens at equal
		// precedence, the right does not.
		a.format(b, n.kids[0], prec+1)
		if n.op == OpUntil {
			b.WriteString(" U ")
		} else {
			b.WriteString(" R ")
		}
		a.format(b, n.kids[1], prec)
	case OpAnd, OpOr:
		sep := " && "
		if n.op == OpOr {
			sep = " || "
		}
		for i, k := range n.kids {
			if i > 0 {
				b.WriteString(sep)
			}
			a.format(b, k, prec+1)
		}
	}
}

func (a *arena) formatNode(n *Node) string {
	var b strings.Builder
	a.format(&b, n, 0)
	return b.String()
}
