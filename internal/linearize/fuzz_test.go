package linearize

import (
	"testing"

	"repro/internal/event"
	"repro/internal/spec"
)

// decodeHistory turns an arbitrary byte string into a call/return history
// over the multiset vocabulary. The decoder deliberately produces torn and
// unbalanced shapes: returns without a call, calls that never return,
// same-thread re-calls, interleaved commit entries the linearizability
// checkers must ignore — everything a crashed or truncated log can contain.
func decodeHistory(data []byte) []event.Entry {
	var entries []event.Entry
	var seq int64
	open := make(map[int32]string)
	methods := []string{"Insert", "Delete", "LookUp", "InsertPair", "Compress"}
	for i := 0; i+2 < len(data); i += 3 {
		a, b, c := data[i], data[i+1], data[i+2]
		tid := int32(a%4) + 1
		seq++
		switch a % 8 {
		case 6: // a bare return with no matching call (torn log head)
			entries = append(entries, event.Entry{
				Seq: seq, Tid: 100 + tid, Kind: event.KindReturn,
				Method: methods[int(b)%len(methods)], Ret: c%2 == 0,
			})
			continue
		case 7: // a commit entry; call/return-only checkers must skip it
			entries = append(entries, event.Entry{
				Seq: seq, Tid: tid, Kind: event.KindCommit, Method: "Insert",
			})
			continue
		}
		if m, ok := open[tid]; ok && b%3 != 0 {
			var ret event.Value
			switch c % 4 {
			case 0:
				ret = false
			case 1:
				ret = true
			case 2:
				ret = nil
			case 3:
				ret = event.Exceptional{Reason: "fuzz"}
			}
			entries = append(entries, event.Entry{Seq: seq, Tid: tid, Kind: event.KindReturn, Method: m, Ret: ret})
			delete(open, tid)
			continue
		}
		m := methods[int(b)%len(methods)]
		var args []event.Value
		switch m {
		case "InsertPair":
			args = []event.Value{int(c % 3), int(c / 3 % 3)}
		case "Compress":
		default:
			args = []event.Value{int(c % 3)}
		}
		entries = append(entries, event.Entry{Seq: seq, Tid: tid, Kind: event.KindCall, Method: m, Args: args})
		open[tid] = m // overwrites a still-open op: same-thread re-call
	}
	return entries
}

// FuzzLinearizeArbitraryHistory drives the engine and the streaming
// checker over arbitrary decoded histories. Invariants: no panic on any
// input; on histories narrow enough for the brute baseline to decide
// (overlap width <= 6), engine and baseline verdicts agree; the streaming
// checker agrees with the engine whenever neither gave up.
func FuzzLinearizeArbitraryHistory(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 2, 2})
	f.Add([]byte{6, 0, 0, 7, 1, 1, 2, 3, 4, 3, 2, 1})
	f.Add([]byte{1, 3, 2, 1, 1, 0, 2, 3, 5, 2, 1, 1, 3, 4, 7, 3, 1, 2})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	sp := For(spec.NewMultiset)
	f.Fuzz(func(t *testing.T, data []byte) {
		entries := decodeHistory(data)

		eng := CheckTrace(entries, sp, Options{MaxStates: 200_000})
		rep := CheckEntries(entries, sp, Options{MaxStates: 200_000})
		if !eng.Aborted && rep.LogErr == "" && rep.Ok() != eng.Linearizable {
			t.Fatalf("engine (%s) and streaming checker (ok=%v) disagree", eng, rep.Ok())
		}

		ops := Extract(entries, sp.IsMutator)
		if maxOverlapWidth(ops) > 6 {
			return
		}
		brute := CheckBruteTrace(entries, sp, 200_000)
		if brute.Aborted || eng.Aborted {
			return
		}
		if brute.Linearizable != eng.Linearizable {
			t.Fatalf("brute (%s) and engine (%s) disagree on a width<=6 history", brute, eng)
		}
	})
}
