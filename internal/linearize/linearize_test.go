package linearize

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/blinktree"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/multiset"
	"repro/internal/spec"
	"repro/vyrd"
)

// traceBuilder assembles call/return-only traces.
type traceBuilder struct {
	seq     int64
	entries []event.Entry
}

func (b *traceBuilder) call(tid int32, m string, args ...event.Value) {
	b.seq++
	b.entries = append(b.entries, event.Entry{Seq: b.seq, Tid: tid, Kind: event.KindCall, Method: m, Args: args})
}

func (b *traceBuilder) ret(tid int32, m string, v event.Value) {
	b.seq++
	b.entries = append(b.entries, event.Entry{Seq: b.seq, Tid: tid, Kind: event.KindReturn, Method: m, Ret: v})
}

// checkBoth runs the brute baseline and the engine on the same multiset
// trace, requires them to agree whenever the brute decides, and returns
// the engine's result.
func checkBoth(t *testing.T, b *traceBuilder) Result {
	t.Helper()
	sp := For(spec.NewMultiset)
	brute := CheckBruteTrace(b.entries, sp, 1_000_000)
	eng := CheckTrace(b.entries, sp, Options{MaxStates: 1_000_000})
	if eng.Aborted {
		t.Fatalf("engine aborted on a small trace: %s", eng)
	}
	if !brute.Aborted && brute.Linearizable != eng.Linearizable {
		t.Fatalf("brute (%s) and engine (%s) disagree", brute, eng)
	}
	if eng.Linearizable {
		replayWitness(t, Extract(b.entries, sp.IsMutator), eng.Witness, sp.New())
	}
	return eng
}

// replayWitness asserts the witness is a valid linearization: a
// permutation of the ops, consistent with real-time order, accepted by the
// model. This is what makes the engine's partition merge trustworthy.
func replayWitness(t *testing.T, ops []Op, w []int, m Model) {
	t.Helper()
	if len(w) != len(ops) {
		t.Fatalf("witness length %d over %d ops", len(w), len(ops))
	}
	seen := make(map[int]bool, len(w))
	for _, idx := range w {
		if idx < 0 || idx >= len(ops) || seen[idx] {
			t.Fatalf("witness %v is not a permutation of 0..%d", w, len(ops)-1)
		}
		seen[idx] = true
	}
	for i := 0; i < len(w); i++ {
		for j := i + 1; j < len(w); j++ {
			if ops[w[j]].RetSeq < ops[w[i]].CallSeq {
				t.Fatalf("witness violates real-time order: op %d (ret #%d) ordered after op %d (call #%d)",
					w[j], ops[w[j]].RetSeq, w[i], ops[w[i]].CallSeq)
			}
		}
	}
	cur := m
	for _, idx := range w {
		op := ops[idx]
		if op.Mutator {
			next, ok := cur.Step(op)
			if !ok {
				t.Fatalf("witness step rejected at op %d (%s)", idx, op.Method)
			}
			cur = next
		} else if !cur.Check(op) {
			t.Fatalf("witness observer rejected at op %d (%s)", idx, op.Method)
		}
	}
}

// TestSequentialTraceLinearizable: a serial history checks trivially.
func TestSequentialTraceLinearizable(t *testing.T) {
	var b traceBuilder
	b.call(1, "Insert", 3)
	b.ret(1, "Insert", true)
	b.call(1, "LookUp", 3)
	b.ret(1, "LookUp", true)
	b.call(1, "Delete", 3)
	b.ret(1, "Delete", true)
	b.call(1, "LookUp", 3)
	b.ret(1, "LookUp", false)
	res := checkBoth(t, &b)
	if !res.Linearizable {
		t.Fatalf("serial trace rejected: %s", res)
	}
	if len(res.Witness) != 4 {
		t.Fatalf("witness %v", res.Witness)
	}
}

// TestFig3TraceLinearizable: the paper's Fig. 3 overlap — LookUp(3) -> true
// overlapping Insert(3) — is linearizable without any commit annotations,
// but requires search.
func TestFig3TraceLinearizable(t *testing.T) {
	var b traceBuilder
	b.call(1, "LookUp", 3)
	b.call(2, "Insert", 3)
	b.call(3, "Insert", 4)
	b.call(4, "Delete", 3)
	b.ret(1, "LookUp", true)
	b.ret(2, "Insert", true)
	b.ret(3, "Insert", true)
	b.ret(4, "Delete", true)
	res := checkBoth(t, &b)
	if !res.Linearizable {
		t.Fatalf("Fig. 3 trace rejected: %s", res)
	}
}

// TestRealTimeOrderRespected: a LookUp that starts strictly after Delete(3)
// returned cannot see 3.
func TestRealTimeOrderRespected(t *testing.T) {
	var b traceBuilder
	b.call(1, "Insert", 3)
	b.ret(1, "Insert", true)
	b.call(1, "Delete", 3)
	b.ret(1, "Delete", true)
	b.call(1, "LookUp", 3)
	b.ret(1, "LookUp", true) // impossible: 3 was deleted before the call
	res := checkBoth(t, &b)
	if res.Linearizable {
		t.Fatalf("non-linearizable trace accepted: witness %v", res.Witness)
	}
}

// TestImpossibleDeleteRejected: Delete -> true with nothing ever inserted.
func TestImpossibleDeleteRejected(t *testing.T) {
	var b traceBuilder
	b.call(1, "Delete", 9)
	b.ret(1, "Delete", true)
	res := checkBoth(t, &b)
	if res.Linearizable {
		t.Fatal("impossible delete accepted")
	}
}

// TestOverlappedAmbiguityAccepted: with Insert(3) and Delete(3) fully
// overlapped, both LookUp answers are linearizable — the imprecision
// Section 2 attributes to pure testing, which commit actions remove.
func TestOverlappedAmbiguityAccepted(t *testing.T) {
	for _, answer := range []bool{true, false} {
		var b traceBuilder
		b.call(1, "Insert", 3)
		b.call(2, "Delete", 3)
		b.call(3, "LookUp", 3)
		b.ret(3, "LookUp", answer)
		b.ret(1, "Insert", true)
		b.ret(2, "Delete", true)
		res := checkBoth(t, &b)
		if !res.Linearizable {
			t.Fatalf("overlapped LookUp -> %v rejected: %s", answer, res)
		}
	}
}

// TestMemoizationPrunes: a wide but state-collapsing trace (many identical
// failed inserts) stays cheap thanks to (done-set, state) memoization, in
// both checkers.
func TestMemoizationPrunes(t *testing.T) {
	var b traceBuilder
	const k = 12
	for i := 0; i < k; i++ {
		b.call(int32(i+1), "Insert", 7)
	}
	for i := 0; i < k; i++ {
		b.ret(int32(i+1), "Insert", false) // all unsuccessful: state never changes
	}
	brute := CheckBruteTrace(b.entries, For(spec.NewMultiset), 1_000_000)
	if !brute.Linearizable {
		t.Fatalf("brute rejected: %s", brute)
	}
	if brute.StatesExplored > 10_000 {
		t.Fatalf("brute memoization ineffective: %d states for a collapsing trace", brute.StatesExplored)
	}
	eng := CheckTrace(b.entries, For(spec.NewMultiset), Options{MaxStates: 1_000_000})
	if !eng.Linearizable {
		t.Fatalf("engine rejected: %s", eng)
	}
	if eng.StatesExplored > 1_000 {
		t.Fatalf("engine explored %d states for a collapsing trace", eng.StatesExplored)
	}
}

// TestStateBudgetAborts: both searches report abortion instead of hanging
// on wide overlaps with a tiny budget. The trace is unsatisfiable, so
// neither search can short-circuit on a lucky witness — and the
// unsatisfiable observer shares an element with the inserts, so
// partitioning cannot dodge the search either.
func TestStateBudgetAborts(t *testing.T) {
	var b traceBuilder
	const k = 14
	for i := 0; i < k; i++ {
		b.call(int32(i+1), "Insert", 1)
	}
	for i := k - 1; i >= 0; i-- {
		b.ret(int32(i+1), "Insert", true)
	}
	b.call(99, "LookUp", 1)
	b.ret(99, "LookUp", false) // impossible: k copies of 1 were inserted
	res := CheckBruteTrace(b.entries, For(spec.NewMultiset), 50)
	if !res.Aborted {
		t.Fatalf("expected an aborted brute search, got %s", res)
	}
	eng := CheckTrace(b.entries, For(spec.NewMultiset), Options{MaxStates: 5})
	if !eng.Aborted {
		t.Fatalf("expected an aborted engine search, got %s", eng)
	}
}

// TestExponentialGrowthWithOverlapWidth quantifies the Section 2 argument
// against the baseline: the number of explored states grows rapidly with
// the number of mutually overlapping method executions. The engine's
// P-compositionality sidesteps this particular family entirely — the
// impossible observation concerns an element no insert touches, so its
// singleton component is refuted without any search.
func TestExponentialGrowthWithOverlapWidth(t *testing.T) {
	explored := make([]int64, 0, 4)
	for _, k := range []int{4, 6, 8, 10} {
		var b traceBuilder
		// k fully-overlapped inserts of distinct elements followed by an
		// impossible observation: deciding the observer's validity requires
		// visiting every reachable (subset, state) pair — 2^k even with
		// memoization, and k! without it.
		for i := 0; i < k; i++ {
			b.call(int32(i+1), "Insert", i)
		}
		for i := 0; i < k; i++ {
			b.ret(int32(i+1), "Insert", true)
		}
		b.call(99, "LookUp", 999)
		b.ret(99, "LookUp", true)
		res := CheckBruteTrace(b.entries, For(spec.NewMultiset), 1_000_000)
		if res.Linearizable {
			t.Fatalf("k=%d accepted an impossible observation", k)
		}
		explored = append(explored, res.StatesExplored)

		eng := CheckTrace(b.entries, For(spec.NewMultiset), Options{MaxStates: 1_000_000})
		if eng.Linearizable || eng.Aborted {
			t.Fatalf("k=%d: engine verdict wrong: %s", k, eng)
		}
		if eng.StatesExplored > 64 {
			t.Fatalf("k=%d: engine explored %d states; partitioning should isolate the impossible observer", k, eng.StatesExplored)
		}
	}
	t.Logf("brute states explored by overlap width 4/6/8/10: %v", explored)
	for i := 1; i < len(explored); i++ {
		if explored[i] <= explored[i-1] {
			t.Fatalf("expected growth with overlap width: %v", explored)
		}
	}
	if explored[len(explored)-1] < 16*explored[0] {
		t.Fatalf("growth too slow to demonstrate the blow-up: %v", explored)
	}
}

// TestEngineBeatsBruteAtWidth16 is the engine's reason to exist: an
// overlap-width-16 history on the order-sensitive Vector model. The brute
// checker must carry every permutation as a distinct end state (16! of
// them) and cannot finish under any realistic budget; the engine commits
// to the first witness and decides in well under a second.
func TestEngineBeatsBruteAtWidth16(t *testing.T) {
	var b traceBuilder
	const k = 16
	for i := 0; i < k; i++ {
		b.call(int32(i+1), "AddElement", i)
	}
	for i := 0; i < k; i++ {
		b.ret(int32(i+1), "AddElement", nil)
	}
	b.call(99, "Size")
	b.ret(99, "Size", k)

	sp := For(spec.NewVector)
	brute := CheckBruteTrace(b.entries, sp, 200_000)
	if !brute.Aborted {
		t.Fatalf("brute finished a width-%d Vector history: %s", k, brute)
	}

	start := time.Now()
	eng := CheckTrace(b.entries, sp, Options{})
	elapsed := time.Since(start)
	if !eng.Linearizable {
		t.Fatalf("engine rejected a clean width-%d history: %s", k, eng)
	}
	replayWitness(t, Extract(b.entries, sp.IsMutator), eng.Witness, sp.New())
	if elapsed > time.Second {
		t.Fatalf("engine took %v on a width-%d history; must be under 1s", elapsed, k)
	}
	t.Logf("width-%d: brute aborted after %d states; engine decided in %v (%d states)",
		k, brute.StatesExplored, elapsed, eng.StatesExplored)
}

// TestEngineRefutesWideVector: the engine also terminates on a wide
// NON-linearizable Vector history, where no lucky witness exists and the
// memo table is doing the bounding.
func TestEngineRefutesWideVector(t *testing.T) {
	var b traceBuilder
	const k = 8
	for i := 0; i < k; i++ {
		b.call(int32(i+1), "AddElement", i)
	}
	for i := 0; i < k; i++ {
		b.ret(int32(i+1), "AddElement", nil)
	}
	b.call(99, "Size")
	b.ret(99, "Size", k+1) // impossible: only k elements were ever added
	eng := CheckTrace(b.entries, For(spec.NewVector), Options{MaxStates: 5_000_000})
	if eng.Linearizable || eng.Aborted {
		t.Fatalf("engine verdict wrong on impossible Size: %s", eng)
	}
}

// TestExtractIgnoresIncomplete: executions without a return are dropped.
func TestExtractIgnoresIncomplete(t *testing.T) {
	var b traceBuilder
	b.call(1, "Insert", 1)
	b.ret(1, "Insert", true)
	b.call(2, "Insert", 2) // never returns
	ops := Extract(b.entries, spec.NewMultiset().IsMutator)
	if len(ops) != 1 || ops[0].Method != "Insert" || ops[0].Tid != 1 {
		t.Fatalf("ops %v", ops)
	}
}

// TestPartitioning pins the P-compositional split: independent elements
// land in separate components, InsertPair bridges its two, and a malformed
// (global) op collapses everything into one component.
func TestPartitioning(t *testing.T) {
	var b traceBuilder
	b.call(1, "Insert", 1)
	b.ret(1, "Insert", true)
	b.call(1, "Insert", 2)
	b.ret(1, "Insert", true)
	b.call(1, "Compress")
	b.ret(1, "Compress", nil)
	sp := For(spec.NewMultiset)
	res := CheckTrace(b.entries, sp, Options{})
	if !res.Linearizable || res.Components != 3 {
		t.Fatalf("expected 3 components (two elements + one stateless daemon op), got %s with %d", res, res.Components)
	}

	b = traceBuilder{}
	b.call(1, "InsertPair", 1, 2)
	b.ret(1, "InsertPair", true)
	b.call(1, "Insert", 2)
	b.ret(1, "Insert", true)
	b.call(1, "LookUp", 1)
	b.ret(1, "LookUp", true)
	res = CheckTrace(b.entries, sp, Options{})
	if !res.Linearizable || res.Components != 1 {
		t.Fatalf("InsertPair should bridge elements 1 and 2 into one component: %s with %d", res, res.Components)
	}

	// NoPartition forces the single-component path and must agree.
	res2 := CheckTrace(b.entries, sp, Options{NoPartition: true})
	if res2.Linearizable != res.Linearizable {
		t.Fatalf("partitioned (%s) and unpartitioned (%s) disagree", res, res2)
	}
}

// TestEngineAgreesWithBruteOnRandomHistories cross-checks the two
// implementations on randomized small histories — including many
// non-linearizable ones, since returns are invented rather than observed.
func TestEngineAgreesWithBruteOnRandomHistories(t *testing.T) {
	sp := For(spec.NewMultiset)
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		entries := randomMultisetHistory(r, 3, 6)
		brute := CheckBruteTrace(entries, For(spec.NewMultiset), 2_000_000)
		eng := CheckTrace(entries, sp, Options{MaxStates: 2_000_000})
		if brute.Aborted || eng.Aborted {
			continue
		}
		if brute.Linearizable != eng.Linearizable {
			t.Fatalf("seed %d: brute (%s) and engine (%s) disagree", seed, brute, eng)
		}
		if eng.Linearizable {
			replayWitness(t, Extract(entries, sp.IsMutator), eng.Witness, sp.New())
		}
	}
}

// randomMultisetHistory emits an arbitrary interleaving of multiset calls
// and returns with invented results; threads bound the overlap width.
func randomMultisetHistory(r *rand.Rand, threads, opsPerThread int) []event.Entry {
	var b traceBuilder
	type openOp struct {
		method string
	}
	open := make(map[int32]*openOp)
	left := make(map[int32]int)
	for tid := int32(1); tid <= int32(threads); tid++ {
		left[tid] = opsPerThread
	}
	methods := []string{"Insert", "Delete", "LookUp", "InsertPair", "Compress"}
	for {
		cands := make([]int32, 0, threads)
		for tid := int32(1); tid <= int32(threads); tid++ {
			if open[tid] != nil || left[tid] > 0 {
				cands = append(cands, tid)
			}
		}
		if len(cands) == 0 {
			return b.entries
		}
		tid := cands[r.Intn(len(cands))]
		if op := open[tid]; op != nil {
			var ret event.Value
			switch op.method {
			case "Compress":
				ret = nil
			default:
				ret = r.Intn(2) == 0
			}
			b.ret(tid, op.method, ret)
			delete(open, tid)
			continue
		}
		m := methods[r.Intn(len(methods))]
		switch m {
		case "InsertPair":
			b.call(tid, m, r.Intn(3), r.Intn(3))
		case "Compress":
			b.call(tid, m)
		default:
			b.call(tid, m, r.Intn(3))
		}
		open[tid] = &openOp{method: m}
		left[tid]--
	}
}

// TestAgreementWithVYRDOnCorrectTraces: on real traces of the correct
// multiset implementation, the commit-driven VYRD check, the baseline and
// the engine all agree (clean) — and the engine never needs to abort.
func TestAgreementWithVYRDOnCorrectTraces(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		target := multiset.Target(32, multiset.BugNone)
		res := harness.Run(target, harness.Config{
			Threads: 3, OpsPerThread: 30, KeyPool: 8, Shrink: true,
			Seed: seed, Level: vyrd.LevelIO,
		})
		entries := res.Log.Snapshot()

		vyrdRep, err := vyrd.CheckEntries(entries, spec.NewMultiset())
		if err != nil {
			t.Fatal(err)
		}
		if !vyrdRep.Ok() {
			t.Fatalf("seed %d: VYRD flagged a correct run:\n%s", seed, vyrdRep)
		}
		sp := For(spec.NewMultiset)
		lin := CheckBruteTrace(entries, sp, 5_000_000)
		if lin.Aborted {
			t.Logf("seed %d: baseline aborted after %d states (expected for wide overlaps)", seed, lin.StatesExplored)
		} else if !lin.Linearizable {
			t.Fatalf("seed %d: baseline rejected a trace VYRD accepts", seed)
		}
		eng := CheckTrace(entries, sp, Options{MaxStates: 5_000_000})
		if eng.Aborted {
			t.Fatalf("seed %d: engine aborted on a real trace: %s", seed, eng)
		}
		if !eng.Linearizable {
			t.Fatalf("seed %d: engine rejected a trace VYRD accepts: %s", seed, eng)
		}
		replayWitness(t, Extract(entries, sp.IsMutator), eng.Witness, sp.New())
	}
}

// TestKVModelAgreementOnBLinkTreeTraces: same cross-check over the B-link
// tree's abstract type.
func TestKVModelAgreementOnBLinkTreeTraces(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		target := blinktree.Target(4, blinktree.BugNone)
		res := harness.Run(target, harness.Config{
			Threads: 3, OpsPerThread: 25, KeyPool: 8, Shrink: true,
			Seed: seed, Level: vyrd.LevelIO,
		})
		entries := res.Log.Snapshot()

		vyrdRep, err := vyrd.CheckEntries(entries, spec.NewKV())
		if err != nil {
			t.Fatal(err)
		}
		if !vyrdRep.Ok() {
			t.Fatalf("seed %d: VYRD flagged a correct run:\n%s", seed, vyrdRep)
		}
		lin := CheckBruteTrace(entries, For(spec.NewKV), 5_000_000)
		if lin.Aborted {
			t.Logf("seed %d: baseline aborted (widest segment %d)", seed, lin.MaxSegment)
		} else if !lin.Linearizable {
			t.Fatalf("seed %d: baseline rejected a trace VYRD accepts: %s", seed, lin)
		}
		eng := CheckTrace(entries, For(spec.NewKV), Options{MaxStates: 5_000_000})
		if eng.Aborted || !eng.Linearizable {
			t.Fatalf("seed %d: engine verdict wrong on a correct run: %s", seed, eng)
		}
	}
}

// TestKVModelRejectsImpossible: a Lookup after a quiescent delete cannot
// see the key.
func TestKVModelRejectsImpossible(t *testing.T) {
	var b traceBuilder
	b.call(1, "Insert", 5, 50)
	b.ret(1, "Insert", nil)
	b.call(1, "Delete", 5)
	b.ret(1, "Delete", true)
	b.call(1, "Lookup", 5)
	b.ret(1, "Lookup", 50)
	if res := CheckTrace(b.entries, For(spec.NewKV), Options{}); res.Linearizable {
		t.Fatal("impossible lookup accepted")
	}
	if res := CheckBruteTrace(b.entries, For(spec.NewKV), 1_000_000); res.Linearizable {
		t.Fatal("brute accepted the impossible lookup")
	}
	// The valid dual passes.
	b = traceBuilder{}
	b.call(1, "Insert", 5, 50)
	b.ret(1, "Insert", nil)
	b.call(1, "Lookup", 5)
	b.ret(1, "Lookup", 50)
	if res := CheckTrace(b.entries, For(spec.NewKV), Options{}); !res.Linearizable {
		t.Fatalf("valid lookup rejected: %s", res)
	}
}

// TestNewModels exercises the models derived from the vector,
// stringbuffer, store and fs specifications on short scenarios, including
// the exceptional-termination conditions.
func TestNewModels(t *testing.T) {
	t.Run("vector", func(t *testing.T) {
		var b traceBuilder
		b.call(1, "AddElement", 7)
		b.ret(1, "AddElement", nil)
		b.call(1, "InsertElementAt", 8, 0)
		b.ret(1, "InsertElementAt", nil)
		b.call(1, "ElementAt", 0)
		b.ret(1, "ElementAt", 8)
		b.call(1, "LastIndexOf", 7)
		b.ret(1, "LastIndexOf", 1)
		b.call(1, "RemoveElementAt", 5)
		b.ret(1, "RemoveElementAt", event.Exceptional{Reason: "index out of range"})
		b.call(1, "Size")
		b.ret(1, "Size", 2)
		if res := CheckTrace(b.entries, For(spec.NewVector), Options{}); !res.Linearizable {
			t.Fatalf("valid vector trace rejected: %s", res)
		}
		b.call(1, "ElementAt", 9)
		b.ret(1, "ElementAt", 1) // impossible: out of range must be exceptional
		if res := CheckTrace(b.entries, For(spec.NewVector), Options{}); res.Linearizable {
			t.Fatal("out-of-range ElementAt with a value accepted")
		}
	})

	t.Run("stringbuffer", func(t *testing.T) {
		var b traceBuilder
		b.call(1, "Append", 0, "abc")
		b.ret(1, "Append", nil)
		b.call(1, "AppendBuffer", 1, 0)
		b.ret(1, "AppendBuffer", nil)
		b.call(1, "ToString", 1)
		b.ret(1, "ToString", "abc")
		b.call(1, "Delete", 0, 1, 99)
		b.ret(1, "Delete", nil) // end clipped to len: "a" remains
		b.call(1, "Length", 0)
		b.ret(1, "Length", 1)
		b.call(1, "SetLength", 0, -1)
		b.ret(1, "SetLength", event.Exceptional{Reason: "negative length"})
		if res := CheckTrace(b.entries, stringBufferSpec(), Options{}); !res.Linearizable {
			t.Fatalf("valid stringbuffer trace rejected: %s", res)
		}
		b.call(1, "AppendBuffer", 0, 1)
		b.ret(1, "AppendBuffer", event.Exceptional{Reason: "torn append"}) // never permitted: the paper's bug
		if res := CheckTrace(b.entries, stringBufferSpec(), Options{}); res.Linearizable {
			t.Fatal("exceptional AppendBuffer accepted")
		}
	})

	t.Run("store", func(t *testing.T) {
		var b traceBuilder
		b.call(1, "Write", 3, []byte("xyz"))
		b.ret(1, "Write", nil)
		b.call(1, "Flush")
		b.ret(1, "Flush", nil)
		b.call(1, "Read", 3)
		b.ret(1, "Read", []byte("xyz"))
		b.call(1, "Read", 4)
		b.ret(1, "Read", nil)
		if res := CheckTrace(b.entries, For(spec.NewStore), Options{}); !res.Linearizable {
			t.Fatalf("valid store trace rejected: %s", res)
		}
		b.call(1, "Read", 3)
		b.ret(1, "Read", []byte("wrong"))
		if res := CheckTrace(b.entries, For(spec.NewStore), Options{}); res.Linearizable {
			t.Fatal("stale read accepted")
		}
	})

	t.Run("fs", func(t *testing.T) {
		var b traceBuilder
		b.call(1, "Create", "f")
		b.ret(1, "Create", true)
		b.call(1, "WriteFile", "f", []byte("1"))
		b.ret(1, "WriteFile", true)
		b.call(1, "Append", "f", []byte("2"))
		b.ret(1, "Append", true)
		b.call(1, "ReadFile", "f")
		b.ret(1, "ReadFile", []byte("12"))
		b.call(1, "Delete", "f")
		b.ret(1, "Delete", true)
		b.call(1, "ReadFile", "f")
		b.ret(1, "ReadFile", nil)
		if res := CheckTrace(b.entries, For(spec.NewFS), Options{}); !res.Linearizable {
			t.Fatalf("valid fs trace rejected: %s", res)
		}
		b.call(1, "Create", "f")
		b.ret(1, "Create", false) // impossible: f was deleted, creation must succeed
		if res := CheckTrace(b.entries, For(spec.NewFS), Options{}); res.Linearizable {
			t.Fatal("failed create of an absent file accepted")
		}
	})
}

// TestStreamingChecker drives the core.EntryChecker surface: interval
// resolution at quiescent cuts for fixed-domain specs, deferred engine
// search otherwise, and a report in ModeLinearize either way.
func TestStreamingChecker(t *testing.T) {
	t.Run("clean-fixed-domain", func(t *testing.T) {
		var b traceBuilder
		b.call(1, "Insert", 1)
		b.call(2, "Insert", 2)
		b.ret(1, "Insert", true)
		b.ret(2, "Insert", true)
		// quiescent cut here
		b.call(1, "LookUp", 1)
		b.ret(1, "LookUp", true)
		rep := CheckEntries(b.entries, For(spec.NewMultiset), Options{})
		if !rep.Ok() || rep.Mode != core.ModeLinearize {
			t.Fatalf("clean trace flagged: %s", rep)
		}
		if rep.MethodsCompleted != 3 || rep.EntriesProcessed != int64(len(b.entries)) {
			t.Fatalf("counters wrong: %+v", rep)
		}
	})

	t.Run("violation-at-interval", func(t *testing.T) {
		var b traceBuilder
		b.call(1, "Insert", 1)
		b.ret(1, "Insert", true)
		b.call(1, "LookUp", 1)
		b.ret(1, "LookUp", false) // impossible after the quiescent insert
		failSeq := b.seq
		b.call(1, "Insert", 2)
		b.ret(1, "Insert", true)
		rep := CheckEntries(b.entries, For(spec.NewMultiset), Options{})
		if rep.Ok() {
			t.Fatal("violating trace accepted")
		}
		v := rep.First()
		if v.Kind != core.ViolationLinearizability {
			t.Fatalf("wrong kind: %s", v)
		}
		if v.Seq != failSeq {
			t.Fatalf("violation at #%d, want interval end #%d", v.Seq, failSeq)
		}
	})

	t.Run("deferred-vector", func(t *testing.T) {
		var b traceBuilder
		b.call(1, "AddElement", 1)
		b.call(2, "AddElement", 2)
		b.ret(1, "AddElement", nil)
		b.ret(2, "AddElement", nil)
		b.call(1, "Size")
		b.ret(1, "Size", 2)
		rep := CheckEntries(b.entries, For(spec.NewVector), Options{})
		if !rep.Ok() {
			t.Fatalf("clean vector trace flagged: %s", rep)
		}
	})

	t.Run("feed-after-finish-panics", func(t *testing.T) {
		c := NewChecker(For(spec.NewMultiset), Options{})
		c.Finish()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		c.Feed(event.Entry{Kind: event.KindCall})
	})

	t.Run("torn-history-no-panic", func(t *testing.T) {
		var b traceBuilder
		b.call(1, "Insert", 1)
		b.call(1, "Insert", 2) // same thread calls again without returning
		b.ret(2, "Delete", true)
		b.ret(1, "Insert", true)
		rep := CheckEntries(b.entries, For(spec.NewMultiset), Options{})
		if !rep.Ok() {
			t.Fatalf("torn history should check its single completed op: %s", rep)
		}
	})
}
