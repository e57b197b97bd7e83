package linearize

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/spec"
)

// Spec bundles everything the engine needs to know about one data type:
// how to build its initial model state, which methods are observers, and
// how its operations partition. For derives it from the type's executable
// specification; nothing here is written per data type.
type Spec struct {
	// Name labels reports and diagnostics and keys the segment cache: the
	// specification's Go type.
	Name string
	// New returns the initial model state.
	New func() Model
	// IsMutator classifies methods, as the specification does.
	IsMutator func(method string) bool
	// Keys assigns each op the keys/elements it touches, for
	// P-compositional partitioning (spec.Linearizable.Keys).
	Keys func(op Op) ([]string, bool)
	// FixedDomain lets the streaming Checker verify interval by interval
	// at quiescent cuts (spec.Linearizable.FixedDomain).
	FixedDomain bool
}

// For derives the engine's Spec from an executable specification: the
// constructor's result, frozen, is the initial model state.
func For[S spec.Linearizable](newSpec func() S) *Spec {
	probe := newSpec() // classification and partitioning read no state
	return &Spec{
		Name:        fmt.Sprintf("%T", probe),
		New:         func() Model { return frozen{newSpec()} },
		IsMutator:   probe.IsMutator,
		Keys:        func(op Op) ([]string, bool) { return probe.Keys(op.Method, op.Args) },
		FixedDomain: probe.FixedDomain(),
	}
}

// frozen is the engine's one Model: an executable specification that is
// never mutated once it is reachable from a frozen value. Step applies the
// mutator to a private copy and publishes the copy only on success, so
// undoing a linearization step is restoring a pointer, and published
// states can be shared across goroutines (the segment cache does).
type frozen struct{ s spec.Linearizable }

// Step implements Model.
func (m frozen) Step(op Op) (Model, bool) {
	next := m.s.Clone()
	if next.ApplyMutator(op.Method, op.Args, op.Ret) != nil {
		return nil, false
	}
	return frozen{next}, true
}

// Check implements Model.
func (m frozen) Check(op Op) bool { return m.s.CheckObserver(op.Method, op.Args, op.Ret) }

// Fingerprint implements Model: the view table's incrementally maintained
// hash. The view determines the specification state, so equal fingerprints
// mean equal states up to a 64-bit collision.
func (m frozen) Fingerprint() uint64 { return m.s.View().Hash() }

// Options tune a search.
type Options struct {
	// MaxStates bounds visited configurations (0 = unbounded). Exceeding
	// it aborts the search undecided (Result.Aborted, or a LogErr on the
	// report surfaces).
	MaxStates int64
	// NoPartition disables P-compositionality even when Spec.Keys is set
	// (benchmarks isolate its contribution this way).
	NoPartition bool
	// Parallel fans the independent component searches of a partitioned
	// history out over a bounded worker pool of that size (<= 1 checks
	// serially). The MaxStates budget is shared across workers through one
	// atomic counter, and the verdict, witness and FailSeq are reduced in
	// component order afterwards. Within budget the result is identical to
	// the serial search; at budget exhaustion, which component observes
	// the exhausted budget depends on scheduling, so a history the serial
	// search decides right at the boundary may come back Aborted (still
	// never a wrong verdict — Aborted is explicitly undecided).
	Parallel int
}

// Check runs the engine over the completed executions (sorted by call
// sequence, as Extract returns them).
func Check(ops []Op, sp *Spec, o Options) Result {
	res := Result{MaxSegment: maxOverlapWidth(ops), Components: 1}
	comps := [][]int{}
	if sp.Keys != nil && !o.NoPartition {
		if c, ok := partition(ops, sp.Keys); ok {
			comps = c
			res.Components = len(c)
		}
	}
	if len(comps) == 0 {
		all := make([]int, len(ops))
		for i := range ops {
			all[i] = i
		}
		comps = [][]int{all}
	}

	subFor := func(comp []int) []Op {
		sub := make([]Op, len(comp))
		for j, gi := range comp {
			sub[j] = ops[gi]
		}
		return sub
	}
	var spent atomic.Int64
	results := make([]jitResult, len(comps))
	if workers := min(o.Parallel, len(comps)); workers > 1 {
		// Components are independent sub-histories (that is what the
		// partition proves), so their searches run concurrently; the
		// reduction below stays in component order for determinism.
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(results) {
						return
					}
					results[i] = checkJIT(subFor(comps[i]), sp.New(), o.MaxStates, &spent)
				}
			}()
		}
		wg.Wait()
	} else {
		for i, comp := range comps {
			results[i] = checkJIT(subFor(comp), sp.New(), o.MaxStates, &spent)
			if results[i].aborted || !results[i].linearizable {
				results = results[:i+1] // serial early exit, verdict decided
				break
			}
		}
	}
	res.StatesExplored = spent.Load()
	witnesses := make([][]int, 0, len(comps))
	for i, r := range results {
		comp := comps[i]
		if r.aborted {
			res.Aborted = true
			return res
		}
		if !r.linearizable {
			for _, gi := range comp {
				if ops[gi].RetSeq > res.FailSeq {
					res.FailSeq = ops[gi].RetSeq
				}
			}
			return res
		}
		w := make([]int, len(r.witness))
		for j, ci := range r.witness {
			w[j] = comp[ci]
		}
		witnesses = append(witnesses, w)
	}
	res.Linearizable = true
	res.Witness = mergeWitnesses(ops, witnesses)
	return res
}

// CheckTrace extracts the completed executions of a recorded trace and
// runs the engine.
func CheckTrace(entries []event.Entry, sp *Spec, o Options) Result {
	return Check(Extract(entries, sp.IsMutator), sp, o)
}

// CheckEntries verifies a recorded trace and renders the outcome as a
// core.Report in ModeLinearize, the shape every CLI/remote surface speaks.
func CheckEntries(entries []event.Entry, sp *Spec, o Options) *core.Report {
	c := NewChecker(sp, o)
	for _, e := range entries {
		c.Feed(e)
	}
	return c.Finish()
}
