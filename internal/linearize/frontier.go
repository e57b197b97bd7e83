package linearize

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/wal"
)

// Checker is the streaming linearizability checker: it consumes the same
// framed log entries as the refinement checker, behind the same
// core.EntryChecker surface, so it plugs into the Multi fan-out, the
// online wal pipeline and the remote server unchanged.
//
// A linearizability verdict needs every return value of an overlap window
// before anything in the window can be ordered, so the checker cannot
// decide entry by entry the way commit-pinned refinement does. It resolves
// incrementally instead, with the interval-bounded reduction: for
// fixed-domain specs it closes an interval at every quiescent cut (a log
// position no execution spans), carrying forward the full frontier of
// specification states reachable by some linearization of the prefix —
// sound and complete, and bounded by the model's state space, which is
// what FixedDomain asserts is small. Order-sensitive specs (Vector,
// StringBuffer), whose frontier would be factorial, skip the cuts: the
// completed executions are buffered and one engine search at Finish
// decides the whole history. An interval too wide for the frontier (> 63
// open executions, an overflowing frontier, an exhausted interval budget)
// degrades to the same deferred search instead of giving up.
//
// Executions the log ends in the middle of are dropped: the verdict
// applies to the completed executions.
type Checker struct {
	sp *Spec
	o  Options

	report   core.Report
	done     bool
	finished bool

	open     map[int32]*Op
	ops      []Op // completed executions, in return order
	segStart int  // ops[segStart:] is the interval still unresolved
	carried  []carried
	deferred bool
	states   int64 // configurations visited across interval closures
	lastSeq  int64
}

// segmentBudget bounds the configurations visited closing one interval;
// exceeding it defers the rest of the history to the engine at Finish.
const segmentBudget = 1 << 20

// maxCarried bounds the frontier carried across a cut.
const maxCarried = 4096

// NewChecker returns a streaming checker for the spec.
func NewChecker(sp *Spec, o Options) *Checker {
	return &Checker{
		sp:       sp,
		o:        o,
		open:     make(map[int32]*Op),
		carried:  []carried{{model: sp.New()}},
		deferred: !sp.FixedDomain,
		report:   core.Report{Mode: core.ModeLinearize},
	}
}

// Done reports whether the checker stopped early. A linearizability
// verdict is global, so the first violation is final.
func (c *Checker) Done() bool { return c.done }

// Report returns the current report. It is only complete after Finish.
func (c *Checker) Report() *core.Report { return &c.report }

func (c *Checker) violate(seq int64, detail string) {
	c.report.TotalViolations++
	c.report.Violations = append(c.report.Violations, core.Violation{
		Kind:             core.ViolationLinearizability,
		Seq:              seq,
		Detail:           detail,
		MethodsCompleted: c.report.MethodsCompleted,
	})
	c.done = true
}

// Feed consumes one log entry. Entries must be fed in sequence order.
// Feeding a finished checker panics: a Checker verifies one execution.
func (c *Checker) Feed(e event.Entry) {
	if c.finished {
		panic("linearize: Feed after Finish")
	}
	if c.done {
		return
	}
	c.report.EntriesProcessed++
	c.lastSeq = e.Seq
	switch e.Kind {
	case event.KindCall:
		c.open[e.Tid] = &Op{
			Tid: e.Tid, Method: e.Method, Args: e.Args,
			CallSeq: e.Seq, Mutator: c.sp.IsMutator(e.Method),
		}
	case event.KindReturn:
		op := c.open[e.Tid]
		if op == nil {
			return
		}
		op.Ret = e.Ret
		op.RetSeq = e.Seq
		delete(c.open, e.Tid)
		c.ops = append(c.ops, *op)
		c.report.MethodsCompleted++
		if !op.Mutator {
			c.report.ObserversChecked++
		}
		if !c.deferred && len(c.open) == 0 {
			c.closeInterval(e.Seq)
		}
	}
}

// closeInterval resolves the executions since the last quiescent cut,
// replacing the carried frontier with the states reachable through them.
func (c *Checker) closeInterval(seq int64) {
	seg := c.ops[c.segStart:]
	if len(seg) == 0 {
		return
	}
	if len(seg) > maxSegmentOps {
		c.deferred = true
		return
	}
	sort.Slice(seg, func(i, j int) bool { return seg[i].CallSeq < seg[j].CallSeq })
	var next []carried
	seen := make(map[uint64]bool)
	merge := func(ends []Model) {
		for _, m := range ends {
			fp := m.Fingerprint()
			if !seen[fp] {
				seen[fp] = true
				next = append(next, carried{model: m})
			}
		}
	}
	sig := segmentSignature(seg)
	var spent int64
	for _, st := range c.carried {
		key := segKey{spec: c.sp.Name, start: st.model.Fingerprint(), sig: sig}
		if ends, ok := segLookup(key); ok {
			merge(ends)
			continue
		}
		// Each frontier state searches into its own end set so the
		// complete per-state result is cacheable; the frontier union is
		// deduplicated in merge, same as the shared-set search did.
		var local []carried
		s := &searcher{
			ops:       seg,
			base:      c.segStart,
			budget:    segmentBudget,
			spent:     &spent,
			ends:      &local,
			endSeen:   make(map[uint64]bool),
			prefix:    carried{model: st.model},
			memo:      make(map[memoKey]bool),
			collected: make(map[uint64]bool),
		}
		s.collect(st.model, 0, make([]int, 0, len(seg)))
		if s.aborted {
			c.states += spent
			c.deferred = true
			return
		}
		ends := make([]Model, len(local))
		for i := range local {
			ends[i] = local[i].model
		}
		segStore(key, ends)
		merge(ends)
	}
	c.states += spent
	if len(next) == 0 {
		c.violate(seq, fmt.Sprintf(
			"no linearization of the %d executions in the interval ending at #%d (%s; %d configurations searched)",
			len(seg), seq, c.sp.Name, spent))
		return
	}
	if len(next) > maxCarried {
		c.deferred = true
		return
	}
	for i := range next {
		next[i].order = nil // the frontier carries states, not witnesses
	}
	c.carried = next
	c.segStart = len(c.ops)
}

// Finish completes checking after the last entry and returns the final
// report: any unresolved tail of the history is decided by the engine,
// from every carried frontier state.
func (c *Checker) Finish() *core.Report {
	if c.finished {
		return &c.report
	}
	c.finished = true
	if c.done {
		return &c.report
	}
	tail := c.ops[c.segStart:]
	if len(tail) == 0 {
		return &c.report
	}
	sort.Slice(tail, func(i, j int) bool { return tail[i].CallSeq < tail[j].CallSeq })

	if c.segStart == 0 && len(c.carried) == 1 && len(c.carried[0].order) == 0 {
		// The whole history is one interval from the initial state: the
		// engine gets it with P-compositional partitioning enabled.
		res := Check(tail, c.sp, c.o)
		c.states += res.StatesExplored
		switch {
		case res.Aborted:
			c.report.LogErr = fmt.Sprintf("linearize: %s", res.String())
			c.done = true
		case !res.Linearizable:
			c.violate(maxInt64(res.FailSeq, c.lastSeq), fmt.Sprintf("%s (%s)", res.String(), c.sp.Name))
		}
		return &c.report
	}

	// Mid-history frontier: the prefix's reachable states are exactly the
	// carried set, so the tail is linearizable iff it linearizes from one
	// of them.
	var spent atomic.Int64
	for _, st := range c.carried {
		r := checkJIT(tail, st.model, c.o.MaxStates, &spent)
		if r.aborted {
			c.states += spent.Load()
			c.report.LogErr = fmt.Sprintf(
				"linearize: aborted after %d configurations (state budget exhausted)", spent.Load())
			c.done = true
			return &c.report
		}
		if r.linearizable {
			c.states += spent.Load()
			return &c.report
		}
	}
	c.states += spent.Load()
	c.violate(c.lastSeq, fmt.Sprintf(
		"no linearization of the %d executions after the last quiescent cut (%s; %d frontier states, %d configurations searched)",
		len(tail), c.sp.Name, len(c.carried), spent.Load()))
	return &c.report
}

// StatesExplored reports the configurations visited so far (diagnostics
// and benchmarks).
func (c *Checker) StatesExplored() int64 { return c.states }

// Run consumes entries from the cursor until the log is closed and drained
// (or a violation ends the run early) and returns the final report,
// mirroring core.Checker.Run so the online and remote paths drive both
// checkers identically.
func (c *Checker) Run(cur wal.Reader) *core.Report {
	return core.RunChecker(c, cur)
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Interval search: the exhaustive, memoized search over one interval's
// executions that closeInterval runs from every carried frontier state
// (and that the test-only baseline checker runs from every end state of the
// previous segment).

// maxSegmentOps bounds a segment's width (the done-set is a bitmask).
const maxSegmentOps = 63

// carried is one reachable specification state at a quiescent cut, with a
// witness order reaching it.
type carried struct {
	model Model
	order []int
}

type memoKey struct {
	done  uint64
	state uint64
}

type searcher struct {
	ops    []Op
	base   int // index of ops[0] in the global op list
	budget int64
	spent  *int64

	prefix    carried
	ends      *[]carried
	endSeen   map[uint64]bool
	memo      map[memoKey]bool
	collected map[uint64]bool
	aborted   bool
}

// collect explores every linearization of the segment, recording each
// distinct reachable end state (exhaustive, since a later segment may be
// satisfiable from only some of them).
func (s *searcher) collect(m Model, done uint64, order []int) {
	if s.aborted {
		return
	}
	if len(order) == len(s.ops) {
		fp := m.Fingerprint()
		if !s.endSeen[fp] {
			s.endSeen[fp] = true
			full := make([]int, 0, len(s.prefix.order)+len(order))
			full = append(full, s.prefix.order...)
			for _, idx := range order {
				full = append(full, s.base+idx)
			}
			*s.ends = append(*s.ends, carried{model: m, order: full})
		}
		return
	}
	key := memoKey{done: done, state: m.Fingerprint()}
	if s.memo[key] {
		return
	}
	s.memo[key] = true
	*s.spent++
	if s.budget > 0 && *s.spent > s.budget {
		s.aborted = true
		return
	}

	// An op may be linearized next iff every op that returned before its
	// call has already been linearized (real-time order preservation).
	for i, op := range s.ops {
		bit := uint64(1) << uint(i)
		if done&bit != 0 {
			continue
		}
		eligible := true
		for j, prev := range s.ops {
			pbit := uint64(1) << uint(j)
			if done&pbit != 0 || i == j {
				continue
			}
			if prev.RetSeq < op.CallSeq {
				eligible = false
				break
			}
		}
		if !eligible {
			continue
		}
		var next Model
		if op.Mutator {
			var ok bool
			next, ok = m.Step(op)
			if !ok {
				continue
			}
		} else {
			if !m.Check(op) {
				continue
			}
			next = m
		}
		s.collect(next, done|bit, append(order, i))
		if s.aborted {
			return
		}
	}
}
