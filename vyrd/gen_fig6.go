//go:build ignore

// gen_fig6.go regenerates the committed trace artifacts under testdata/
// (run by the go:generate lines in vyrd.go): the paper's Fig. 6
// buggy-FindSlot execution, recorded at view level through a log sink, with
// the trailing LookUp(5) that exposes the lost element to I/O refinement;
// its one-byte-corrupted variant; and the annotation-free artifact.
//
// The artifacts pin the persisted log format: TestPersistedFig6Artifact
// decodes fig6.log offline and checks it in both modes. Regenerate them (and
// bump event.FormatVersion) whenever the wire shape of event.Entry changes:
//
//	go generate ./vyrd
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"repro/internal/linearize"
	"repro/internal/multiset"
	"repro/internal/spec"
	"repro/vyrd"
)

func main() {
	out := flag.String("o", "testdata/fig6.log", "output artifact path")
	corruptAt := flag.Int("corrupt-at", -1, "after the self-check, XOR the byte at this offset (reproducible corrupted-artifact generation)")
	corruptXor := flag.Int("corrupt-xor", 0x41, "XOR mask for -corrupt-at")
	nocommit := flag.Bool("nocommit", false, "generate the annotation-free artifact instead (correct multiset, call/return-only instrumentation; pass -o testdata/fig6_nocommit.log)")
	flag.Parse()

	if *nocommit {
		genNoCommit(*out)
		return
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}

	log := vyrd.NewLog(vyrd.LevelView)
	if err := log.AttachSink(f); err != nil {
		fatal(err)
	}

	// The Fig. 6 schedule, forced deterministically: T2's buggy FindSlot
	// reads slot 0 as empty and pauses in the race window; T1 inserts (5,6)
	// into slots 0 and 1; T2 resumes and overwrites slot 0 with 7, losing
	// element 5.
	m := multiset.New(8, multiset.BugFindSlotAcquire)
	p1 := log.NewProbe()
	p2 := log.NewProbe()

	t2Entered := make(chan struct{})
	t1Done := make(chan struct{})
	var gateOnce sync.Once
	m.RaceWindow = func(i int) {
		if i == 0 {
			gateOnce.Do(func() {
				close(t2Entered)
				<-t1Done
			})
		}
	}

	done := make(chan bool)
	go func() { done <- m.InsertPair(p2, 7, 8) }()
	<-t2Entered
	m.RaceWindow = nil
	if !m.InsertPair(p1, 5, 6) {
		fatal(fmt.Errorf("T1 InsertPair failed"))
	}
	close(t1Done)
	if !<-done {
		fatal(fmt.Errorf("T2 InsertPair failed"))
	}

	// The paper's LookUp(5): the implementation lost 5, so I/O refinement
	// sees an observer violation here.
	if m.LookUp(p1, 5) {
		fatal(fmt.Errorf("implementation still contains 5; the bug did not trigger"))
	}
	log.Close()
	if err := log.SinkErr(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}

	// Self-check: the artifact must reproduce the paper's detections.
	g, err := os.Open(*out)
	if err != nil {
		fatal(err)
	}
	defer g.Close()
	entries, err := vyrd.ReadLog(g)
	if err != nil {
		fatal(err)
	}
	ioRep, err := vyrd.CheckEntries(entries, spec.NewMultiset(), vyrd.WithMode(vyrd.ModeIO))
	if err != nil {
		fatal(err)
	}
	viewRep, err := vyrd.CheckEntries(entries, spec.NewMultiset(),
		vyrd.WithReplayer(multiset.NewReplayer()), vyrd.WithDiagnostics(true))
	if err != nil {
		fatal(err)
	}
	if ioRep.Ok() || ioRep.First().Kind != vyrd.ViolationObserver {
		fatal(fmt.Errorf("artifact does not reproduce the I/O observer violation:\n%s", ioRep))
	}
	if viewRep.Ok() || viewRep.First().Kind != vyrd.ViolationView {
		fatal(fmt.Errorf("artifact does not reproduce the view violation:\n%s", viewRep))
	}
	fmt.Printf("genfig6: wrote %s (%d entries, format v%d; view detection after %d methods, I/O after %d)\n",
		*out, len(entries), vyrd.LogFormatVersion,
		viewRep.First().MethodsCompleted, ioRep.First().MethodsCompleted)

	// The corrupted variant for the recovery golden test: flip one byte at
	// a fixed offset of the (already self-checked) artifact, so the
	// committed file and its RecoveryReport are reproducible bit for bit.
	if *corruptAt >= 0 {
		data, err := os.ReadFile(*out)
		if err != nil {
			fatal(err)
		}
		if *corruptAt >= len(data) {
			fatal(fmt.Errorf("-corrupt-at %d beyond the %d-byte artifact", *corruptAt, len(data)))
		}
		data[*corruptAt] ^= byte(*corruptXor)
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("genfig6: corrupted byte %d (xor %#x) of %s\n", *corruptAt, *corruptXor, *out)
	}
}

// genNoCommit writes the annotation-free artifact: the CORRECT multiset
// driven through call/return-only probes (the implementation runs with a
// nil probe, so the log carries no commit actions, writes or view events),
// with two genuinely overlapped InsertPairs and a quiescent LookUp. The
// artifact pins the verdict split that motivates the linearizability
// engine: I/O refinement rejects it as an instrumentation violation (a
// mutator execution finished without a commit action), while the
// linearizability check verifies it from the call/return behavior alone.
func genNoCommit(out string) {
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	log := vyrd.NewLog(vyrd.LevelIO)
	if err := log.AttachSink(f); err != nil {
		fatal(err)
	}

	// Single-goroutine generation, so the committed bytes are reproducible:
	// the overlap lives in the log (T2's InsertPair call precedes T1's whole
	// execution; its return follows), not in the scheduler.
	m := multiset.New(8, multiset.BugNone)
	p1 := log.NewProbe()
	p2 := log.NewProbe()

	inv2 := p2.Call("InsertPair", 7, 8)
	inv1 := p1.Call("InsertPair", 5, 6)
	ok1 := m.InsertPair(nil, 5, 6)
	inv1.Return(ok1)
	ok2 := m.InsertPair(nil, 7, 8)
	inv2.Return(ok2)
	if !ok1 || !ok2 {
		fatal(fmt.Errorf("InsertPair failed (%v, %v)", ok1, ok2))
	}
	invL := p1.Call("LookUp", 5)
	okL := m.LookUp(nil, 5)
	invL.Return(okL)
	if !okL {
		fatal(fmt.Errorf("correct multiset lost element 5"))
	}

	log.Close()
	if err := log.SinkErr(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}

	// Self-check: refinement must reject (instrumentation), the
	// linearizability engine must verify.
	g, err := os.Open(out)
	if err != nil {
		fatal(err)
	}
	defer g.Close()
	entries, err := vyrd.ReadLog(g)
	if err != nil {
		fatal(err)
	}
	ioRep, err := vyrd.CheckEntries(entries, spec.NewMultiset(), vyrd.WithMode(vyrd.ModeIO))
	if err != nil {
		fatal(err)
	}
	if ioRep.Ok() || ioRep.First().Kind != vyrd.ViolationInstrumentation {
		fatal(fmt.Errorf("artifact is not refinement-rejected as annotation-free:\n%s", ioRep))
	}
	linRep := linearize.CheckEntries(entries, linearize.For(spec.NewMultiset), linearize.Options{})
	if !linRep.Ok() {
		fatal(fmt.Errorf("linearizability check rejected the annotation-free artifact:\n%s", linRep))
	}
	fmt.Printf("genfig6: wrote %s (%d entries, format v%d; refinement rejects with %s, linearizability verifies)\n",
		out, len(entries), vyrd.LogFormatVersion, ioRep.First().Kind)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genfig6:", err)
	os.Exit(1)
}
