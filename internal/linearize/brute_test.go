package linearize

import (
	"repro/internal/event"
	"repro/internal/spec"
)

// This file is the retained baseline checker ("the strawman"): the naive
// search VYRD's Section 2 argues against. A window of k mutually
// overlapping executions admits up to k! candidate orders — "clearly, this
// method would not scale as the number of methods being executed
// concurrently increases". The checker cuts the trace at quiescent points
// (positions no execution spans), searches each segment exhaustively with
// memoization on (set of linearized executions, specification state), and
// carries every reachable end state across the cut — sound and complete,
// but exponential in the overlap width within a segment, because it must
// enumerate all end states rather than stop at a first witness. It is test
// code: the oracle the engine is fuzzed and differentially tested against.
// The per-segment search itself (searcher, in frontier.go) is shared with
// the streaming checker's interval closure.

// CheckBrute searches for a linearization of ops starting from the initial
// model with the baseline algorithm. maxStates bounds the total search
// (0 means no bound); exceeding it aborts with Aborted set — the expected
// outcome for wide overlaps, which is the point of the baseline.
func CheckBrute(ops []Op, initial Model, maxStates int64) Result {
	segments := cutAtQuiescence(ops)
	res := Result{}
	// Every reachable end state of the prefix, with one witness order each.
	states := []carried{{model: initial}}
	base := 0
	for _, seg := range segments {
		if len(seg) > maxSegmentOps {
			res.Aborted = true
			return res
		}
		if len(seg) > res.MaxSegment {
			res.MaxSegment = len(seg)
		}
		var next []carried
		seen := make(map[uint64]bool)
		for _, st := range states {
			s := &searcher{
				ops:       seg,
				base:      base,
				budget:    maxStates,
				spent:     &res.StatesExplored,
				ends:      &next,
				endSeen:   seen,
				prefix:    st,
				memo:      make(map[memoKey]bool),
				collected: make(map[uint64]bool),
			}
			s.collect(st.model, 0, make([]int, 0, len(seg)))
			if s.aborted {
				res.Aborted = true
				return res
			}
		}
		if len(next) == 0 {
			res.FailSeq = seg[len(seg)-1].RetSeq
			for _, op := range seg {
				if op.RetSeq > res.FailSeq {
					res.FailSeq = op.RetSeq
				}
			}
			return res // no serialization survives this segment
		}
		states = next
		base += len(seg)
	}
	res.Linearizable = true
	res.Witness = states[0].order
	return res
}

// cutAtQuiescence splits ops (sorted by call) at points where every earlier
// execution has returned before every later one is called.
func cutAtQuiescence(ops []Op) [][]Op {
	var segments [][]Op
	start := 0
	var maxRet int64
	for i, op := range ops {
		if i > start && op.CallSeq > maxRet {
			segments = append(segments, ops[start:i])
			start = i
		}
		if op.RetSeq > maxRet {
			maxRet = op.RetSeq
		}
	}
	if start < len(ops) {
		segments = append(segments, ops[start:])
	}
	return segments
}

// CheckBruteTrace is the baseline's convenience entry point: extract the
// ops of a recorded trace and search from the spec's initial state.
func CheckBruteTrace(entries []event.Entry, sp *Spec, maxStates int64) Result {
	return CheckBrute(Extract(entries, sp.IsMutator), sp.New(), maxStates)
}

// stringBufferSpec is the four-buffer family the harness subject runs.
func stringBufferSpec() *Spec {
	return For(func() *spec.StringBuffers { return spec.NewStringBuffers(4) })
}
