package ltl

import (
	"sort"
	"strings"

	"repro/internal/event"
)

// Naive reference evaluator.
//
// An independent implementation of the same LTL3 progression semantics,
// used by the differential test to pin the streaming evaluator: plain
// formula trees instead of a hash-consed arena, canonical-string equality
// instead of pointer identity, no memoization, no sharing. It applies the
// SAME simplification rule set the arena constructors document — verdicts
// are defined by progression-up-to-those-rules, so a reference that
// simplified differently would genuinely disagree (e.g. on tautologies
// like (aUb) || !(aUb)).

type nnode struct {
	op   Op
	atom *Atom
	kids []*nnode
}

var (
	naiveTrue  = &nnode{op: OpTrue}
	naiveFalse = &nnode{op: OpFalse}
)

func (n *nnode) isTrue() bool  { return n.op == OpTrue }
func (n *nnode) isFalse() bool { return n.op == OpFalse }

// key renders a canonical structural identity string.
func (n *nnode) key() string {
	var b strings.Builder
	n.writeKey(&b)
	return b.String()
}

func (n *nnode) writeKey(b *strings.Builder) {
	b.WriteByte(byte('A' + n.op))
	if n.op == OpAtom {
		b.WriteString(n.atom.String())
	}
	b.WriteByte('(')
	for _, k := range n.kids {
		k.writeKey(b)
	}
	b.WriteByte(')')
}

// convertNaive copies an arena formula into a plain tree.
func convertNaive(a *arena, n *Node) *nnode {
	switch n.op {
	case OpTrue:
		return naiveTrue
	case OpFalse:
		return naiveFalse
	case OpAtom:
		return &nnode{op: OpAtom, atom: a.atoms[n.atom]}
	}
	kids := make([]*nnode, len(n.kids))
	for i, k := range n.kids {
		kids[i] = convertNaive(a, k)
	}
	return &nnode{op: n.op, kids: kids}
}

func nNot(x *nnode) *nnode {
	switch {
	case x.isTrue():
		return naiveFalse
	case x.isFalse():
		return naiveTrue
	case x.op == OpNot:
		return x.kids[0]
	}
	return &nnode{op: OpNot, kids: []*nnode{x}}
}

func nGather(op Op, skip func(*nnode) bool, xs, out []*nnode) []*nnode {
	for _, x := range xs {
		if skip(x) {
			continue
		}
		if x.op == op {
			out = nGather(op, skip, x.kids, out)
			continue
		}
		out = append(out, x)
	}
	return out
}

// nJunction implements the shared and/or algebra on trees: flatten, drop
// the identity, annihilate, sort+dedup by canonical key, and collapse
// complementary pairs.
func nJunction(op Op, xs []*nnode) *nnode {
	identity, annihilator := naiveTrue, naiveFalse
	if op == OpOr {
		identity, annihilator = naiveFalse, naiveTrue
	}
	kids := nGather(op, func(n *nnode) bool { return n.op == identity.op }, xs, nil)
	for _, k := range kids {
		if k.op == annihilator.op {
			return annihilator
		}
	}
	type keyed struct {
		k string
		n *nnode
	}
	ks := make([]keyed, len(kids))
	for i, k := range kids {
		ks[i] = keyed{k.key(), k}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].k < ks[j].k })
	uniq := ks[:0]
	for i, k := range ks {
		if i > 0 && k.k == ks[i-1].k {
			continue
		}
		uniq = append(uniq, k)
	}
	present := make(map[string]bool, len(uniq))
	for _, k := range uniq {
		present[k.k] = true
	}
	for _, k := range uniq {
		if k.n.op == OpNot && present[k.n.kids[0].key()] {
			return annihilator
		}
	}
	switch len(uniq) {
	case 0:
		return identity
	case 1:
		return uniq[0].n
	}
	out := make([]*nnode, len(uniq))
	for i, k := range uniq {
		out[i] = k.n
	}
	return &nnode{op: op, kids: out}
}

func nAnd(xs ...*nnode) *nnode { return nJunction(OpAnd, xs) }
func nOr(xs ...*nnode) *nnode  { return nJunction(OpOr, xs) }

func nNext(x *nnode) *nnode {
	if x.isTrue() || x.isFalse() {
		return x
	}
	return &nnode{op: OpNext, kids: []*nnode{x}}
}

func nEventually(x *nnode) *nnode {
	if x.isTrue() || x.isFalse() || x.op == OpEventually {
		return x
	}
	return &nnode{op: OpEventually, kids: []*nnode{x}}
}

func nAlways(x *nnode) *nnode {
	if x.isTrue() || x.isFalse() || x.op == OpAlways {
		return x
	}
	return &nnode{op: OpAlways, kids: []*nnode{x}}
}

func nUntil(f, g *nnode) *nnode {
	switch {
	case g.isTrue() || g.isFalse():
		return g
	case f.isFalse():
		return g
	case f.isTrue():
		return nEventually(g)
	case f.key() == g.key():
		return f
	}
	return &nnode{op: OpUntil, kids: []*nnode{f, g}}
}

func nRelease(f, g *nnode) *nnode {
	switch {
	case g.isTrue() || g.isFalse():
		return g
	case f.isTrue():
		return g
	case f.isFalse():
		return nAlways(g)
	case f.key() == g.key():
		return f
	}
	return &nnode{op: OpRelease, kids: []*nnode{f, g}}
}

// nProg is one progression step on the tree, structurally recursive with no
// sharing or caching.
func nProg(n *nnode, e *event.Entry, digest DigestFunc) *nnode {
	switch n.op {
	case OpTrue, OpFalse:
		return n
	case OpAtom:
		if n.atom.Match(e, digest) {
			return naiveTrue
		}
		return naiveFalse
	case OpNot:
		return nNot(nProg(n.kids[0], e, digest))
	case OpAnd:
		ks := make([]*nnode, len(n.kids))
		for i, k := range n.kids {
			ks[i] = nProg(k, e, digest)
		}
		return nAnd(ks...)
	case OpOr:
		ks := make([]*nnode, len(n.kids))
		for i, k := range n.kids {
			ks[i] = nProg(k, e, digest)
		}
		return nOr(ks...)
	case OpNext:
		return n.kids[0]
	case OpUntil:
		f, g := n.kids[0], n.kids[1]
		return nOr(nProg(g, e, digest), nAnd(nProg(f, e, digest), n))
	case OpRelease:
		f, g := n.kids[0], n.kids[1]
		return nAnd(nProg(g, e, digest), nOr(nProg(f, e, digest), n))
	case OpEventually:
		return nOr(nProg(n.kids[0], e, digest), n)
	case OpAlways:
		return nAnd(nProg(n.kids[0], e, digest), n)
	}
	return n
}

// NaiveVerdict evaluates one property over a whole trace by tree
// progression and returns the LTL3 verdict and witness seq (-1 if
// undecided). The differential test pins the streaming evaluator against
// this.
func NaiveVerdict(p *Prop, entries []event.Entry, digest DigestFunc) (Verdict, int64) {
	cur := convertNaive(p.set.ar, p.root)
	if cur.isTrue() {
		return Satisfied, -1
	}
	if cur.isFalse() {
		return Violated, -1
	}
	for i := range entries {
		cur = nProg(cur, &entries[i], digest)
		if cur.isTrue() {
			return Satisfied, entries[i].Seq
		}
		if cur.isFalse() {
			return Violated, entries[i].Seq
		}
	}
	return Inconclusive, -1
}
