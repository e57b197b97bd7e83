package vyrd_test

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/faultfs"
	"repro/internal/harness"
	"repro/internal/linearize"
	"repro/internal/multiset"
	"repro/internal/spec"
	"repro/vyrd"
)

func TestNilProbeIsNoOp(t *testing.T) {
	var p *vyrd.Probe
	inv := p.Call("Insert", 1)
	p.Write("op", 1)
	inv.Commit("label")
	inv.CommitWrite("label", "op", 1)
	inv.BeginCommitBlock()
	inv.EndCommitBlock()
	inv.Return(true)
	if p.Tid() != 0 {
		t.Fatal("nil probe has a tid")
	}
}

func TestLevelOffRecordsNothing(t *testing.T) {
	log := vyrd.NewLog(vyrd.LevelOff)
	p := log.NewProbe()
	inv := p.Call("Insert", 1)
	p.Write("op", 1)
	inv.Commit("x")
	inv.Return(true)
	if log.Len() != 0 {
		t.Fatalf("LevelOff recorded %d entries", log.Len())
	}
}

func TestLevelIODropsWrites(t *testing.T) {
	log := vyrd.NewLog(vyrd.LevelIO)
	p := log.NewProbe()
	inv := p.Call("Insert", 1)
	p.Write("op", 1)           // dropped
	inv.BeginCommitBlock()     // dropped
	inv.CommitWrite("x", "op") // commit kept, write payload dropped
	inv.EndCommitBlock()       // dropped
	inv.Return(true)
	entries := log.Snapshot()
	if len(entries) != 3 {
		t.Fatalf("LevelIO recorded %d entries: %v", len(entries), entries)
	}
	if entries[1].WOp != "" {
		t.Fatal("LevelIO kept the commit-write payload")
	}
}

func TestLevelViewRecordsEverything(t *testing.T) {
	log := vyrd.NewLog(vyrd.LevelView)
	p := log.NewProbe()
	inv := p.Call("Insert", 1)
	inv.BeginCommitBlock()
	p.Write("op", 1)
	inv.Commit("x")
	inv.EndCommitBlock()
	inv.Return(true)
	if log.Len() != 6 {
		t.Fatalf("LevelView recorded %d entries", log.Len())
	}
}

func TestProbesGetDistinctTids(t *testing.T) {
	log := vyrd.NewLog(vyrd.LevelIO)
	p1 := log.NewProbe()
	p2 := log.NewProbe()
	w := log.NewWorkerProbe()
	if p1.Tid() == p2.Tid() || p1.Tid() == w.Tid() {
		t.Fatal("duplicate tids")
	}
	inv := w.Call("Compress")
	inv.Commit("x")
	inv.Return(nil)
	for _, e := range log.Snapshot() {
		if !e.Worker {
			t.Fatal("worker probe entries not marked")
		}
	}
}

func TestEndToEndRoundTripThroughFacade(t *testing.T) {
	log := vyrd.NewLog(vyrd.LevelView)
	p := log.NewProbe()
	inv := p.Call("Insert", 3)
	inv.Commit("done")
	inv.Return(true)
	inv = p.Call("LookUp", 3)
	inv.Return(true)
	log.Close()

	rep, err := vyrd.Check(log, spec.NewMultiset())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.MethodsCompleted != 2 {
		t.Fatalf("report: %s", rep)
	}
}

func TestOnlineCheckerViaFacade(t *testing.T) {
	log := vyrd.NewLog(vyrd.LevelIO)
	wait, err := log.StartChecker(spec.NewMultiset(), vyrd.WithMode(vyrd.ModeIO))
	if err != nil {
		t.Fatal(err)
	}
	p := log.NewProbe()
	inv := p.Call("Insert", 1)
	inv.Commit("x")
	inv.Return(true)
	log.Close()
	rep := wait()
	if !rep.Ok() || rep.CommitsApplied != 1 {
		t.Fatalf("online report: %s", rep)
	}
}

func TestPersistAndReload(t *testing.T) {
	log := vyrd.NewLog(vyrd.LevelView)
	var buf bytes.Buffer
	if err := log.AttachSink(&buf); err != nil {
		t.Fatal(err)
	}
	p := log.NewProbe()
	inv := p.Call("Insert", 5)
	inv.Commit("x")
	inv.Return(true)
	log.Close()
	if err := log.SinkErr(); err != nil {
		t.Fatal(err)
	}

	entries, err := vyrd.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := vyrd.CheckEntries(entries, spec.NewMultiset())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("reloaded trace: %s", rep)
	}
}

// TestUnsupportedValueFailsSinkNotChecker pins the closed value vocabulary
// of the persisted format: a logged value of a type the codec does not
// encode fails the sink at encode time, through SinkErr, with the type
// named — while the in-memory log and its checker, which never encode,
// handle the same entry as before.
func TestUnsupportedValueFailsSinkNotChecker(t *testing.T) {
	log := vyrd.NewLog(vyrd.LevelView)
	var sunk bytes.Buffer
	if err := log.AttachSink(&sunk); err != nil {
		t.Fatal(err)
	}
	p := log.NewProbe()
	inv := p.Call("Insert", 5)
	p.Write("slot", struct{}{})
	inv.Commit("inserted")
	inv.Return(true)
	inv = p.Call("LookUp", 5)
	inv.Return(true)
	log.Close()

	err := log.SinkErr()
	if err == nil {
		t.Fatal("sink accepted a value outside the codec's vocabulary")
	}
	for _, want := range []string{"struct {}", "vocabulary", "[]string"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("sink error %q does not mention %q", err, want)
		}
	}
	rep, err := vyrd.CheckEntries(log.Snapshot(), spec.NewMultiset(), vyrd.WithMode(vyrd.ModeIO))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.MethodsCompleted != 2 {
		t.Fatalf("in-memory check disturbed by the unencodable entry:\n%s", rep)
	}
}

func TestViolationSurfacesThroughFacade(t *testing.T) {
	log := vyrd.NewLog(vyrd.LevelIO)
	p := log.NewProbe()
	inv := p.Call("Delete", 9)
	inv.Commit("x")
	inv.Return(true) // claims removal of an element never inserted
	log.Close()
	rep, err := vyrd.Check(log, spec.NewMultiset())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() || rep.First().Kind != vyrd.ViolationIO {
		t.Fatalf("report: %s", rep)
	}
}

// TestPersistedFig6Artifact loads the committed trace artifact — the
// Fig. 6 buggy-FindSlot execution recorded through a log sink — and checks
// it offline in both modes: view refinement catches the lost element at
// the overwriting commit, and the trailing LookUp(5) exposes it to I/O
// refinement too. Guards the persistence format against drift.
func TestPersistedFig6Artifact(t *testing.T) {
	f, err := os.Open("testdata/fig6.log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := vyrd.ReadLog(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty artifact")
	}

	ioRep, err := vyrd.CheckEntries(entries, spec.NewMultiset(), vyrd.WithMode(vyrd.ModeIO))
	if err != nil {
		t.Fatal(err)
	}
	if ioRep.Ok() || ioRep.First().Kind != vyrd.ViolationObserver {
		t.Fatalf("I/O check of the artifact: %s", ioRep)
	}

	viewRep, err := vyrd.CheckEntries(entries, spec.NewMultiset(),
		vyrd.WithReplayer(multiset.NewReplayer()), vyrd.WithDiagnostics(true))
	if err != nil {
		t.Fatal(err)
	}
	if viewRep.Ok() || viewRep.First().Kind != vyrd.ViolationView {
		t.Fatalf("view check of the artifact: %s", viewRep)
	}
	// View detection precedes I/O detection in the witness, as the paper's
	// Fig. 6 discussion describes.
	if viewRep.First().MethodsCompleted > ioRep.First().MethodsCompleted {
		t.Fatalf("view detected later than I/O: %d vs %d",
			viewRep.First().MethodsCompleted, ioRep.First().MethodsCompleted)
	}
}

// TestWindowedOnlineFig6 drives the Fig. 6 schedule (the one genfig6
// records) through probes on a windowed log with the checker started from
// the facade, and requires the verdicts the committed artifact gives
// offline. The window is far smaller than the trace, so the probes' appends
// are admitted only as the checker's cursor consumes.
func TestWindowedOnlineFig6(t *testing.T) {
	opts := []vyrd.Option{vyrd.WithReplayer(multiset.NewReplayer()), vyrd.WithFailFast(false)}
	log := vyrd.NewLogWith(vyrd.LevelView, vyrd.LogOptions{Window: 4})
	wait, err := log.StartChecker(spec.NewMultiset(), opts...)
	if err != nil {
		t.Fatal(err)
	}

	m := multiset.New(8, multiset.BugFindSlotAcquire)
	p1, p2 := log.NewProbe(), log.NewProbe()
	t2Entered, t1Done := make(chan struct{}), make(chan struct{})
	var gate sync.Once
	m.RaceWindow = func(i int) {
		if i == 0 {
			gate.Do(func() {
				close(t2Entered)
				<-t1Done
			})
		}
	}
	done := make(chan bool)
	go func() { done <- m.InsertPair(p2, 7, 8) }()
	<-t2Entered
	m.RaceWindow = nil
	ok1 := m.InsertPair(p1, 5, 6)
	close(t1Done)
	if ok2 := <-done; !ok1 || !ok2 {
		t.Fatalf("InsertPair results %v, %v; the schedule needs both to succeed", ok1, ok2)
	}
	if m.LookUp(p1, 5) {
		t.Fatal("implementation still contains 5; the bug did not trigger")
	}
	log.Close()
	online := wait()

	f, err := os.Open("testdata/fig6.log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := vyrd.ReadLog(f)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := vyrd.CheckEntries(entries, spec.NewMultiset(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if offline.Ok() || offline.First().Kind != vyrd.ViolationView {
		t.Fatalf("artifact no longer shows the view violation: %s", offline)
	}
	if online.LogErr != "" || online.TotalViolations != offline.TotalViolations ||
		online.First().Kind != offline.First().Kind ||
		online.First().MethodsCompleted != offline.First().MethodsCompleted ||
		online.MethodsCompleted != offline.MethodsCompleted {
		t.Fatalf("windowed online run disagrees with the artifact:\nonline:  %s\noffline: %s", online, offline)
	}
	if st := log.Stats(); st.Appends != int64(len(entries)) {
		t.Fatalf("live run logged %d entries, the artifact holds %d", st.Appends, len(entries))
	}
}

// TestPersistedNoCommitArtifact loads the committed annotation-free trace
// (correct multiset, call/return-only instrumentation — no commit actions)
// and pins the verdict split that motivates the linearizability engine:
// refinement rejects the log as an instrumentation violation, because it
// fundamentally needs the commit annotations the subject does not have,
// while the linearizability check verifies the same log from call/return
// behavior alone.
func TestPersistedNoCommitArtifact(t *testing.T) {
	f, err := os.Open("testdata/fig6_nocommit.log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := vyrd.ReadLog(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty artifact")
	}
	for _, e := range entries {
		if e.Kind != event.KindCall && e.Kind != event.KindReturn {
			t.Fatalf("annotation-free artifact contains a %v entry at #%d", e.Kind, e.Seq)
		}
	}

	ioRep, err := vyrd.CheckEntries(entries, spec.NewMultiset(), vyrd.WithMode(vyrd.ModeIO))
	if err != nil {
		t.Fatal(err)
	}
	if ioRep.Ok() || ioRep.First().Kind != vyrd.ViolationInstrumentation {
		t.Fatalf("refinement should reject the annotation-free log as an instrumentation violation:\n%s", ioRep)
	}

	linRep := linearize.CheckEntries(entries, linearize.For(spec.NewMultiset), linearize.Options{})
	if !linRep.Ok() {
		t.Fatalf("linearizability check rejected the annotation-free artifact:\n%s", linRep)
	}
	if linRep.Mode != vyrd.ModeLinearize {
		t.Fatalf("linearize report in mode %s", linRep.Mode)
	}
}

// TestNoCommitSubjectLiveRun verifies an annotation-free subject
// end-to-end from a live concurrent run: the harness drives the NoCommit
// multiset wrapper (implementation uninstrumented, probes logging only
// calls and returns), refinement rejects the resulting log, and the
// linearizability engine verifies it.
func TestNoCommitSubjectLiveRun(t *testing.T) {
	target := multiset.NoCommitTarget(32, multiset.BugNone)
	for seed := int64(1); seed <= 3; seed++ {
		res := harness.Run(target, harness.Config{
			Threads: 3, OpsPerThread: 25, KeyPool: 8, Shrink: true,
			Seed: seed, Level: vyrd.LevelIO,
		})
		entries := res.Log.Snapshot()
		ioRep, err := vyrd.CheckEntries(entries, spec.NewMultiset(), vyrd.WithMode(vyrd.ModeIO))
		if err != nil {
			t.Fatal(err)
		}
		if ioRep.Ok() {
			t.Fatalf("seed %d: refinement accepted a commit-free log", seed)
		}
		linRep := linearize.CheckEntries(entries, linearize.For(spec.NewMultiset),
			linearize.Options{MaxStates: 5_000_000})
		if linRep.LogErr != "" {
			t.Fatalf("seed %d: linearize gave up: %s", seed, linRep.LogErr)
		}
		if !linRep.Ok() {
			t.Fatalf("seed %d: linearizability rejected a correct annotation-free run:\n%s", seed, linRep)
		}
	}
}

// TestGoldenV1GobArtifact pins the end of the version-1 migration story:
// the committed gob-format Fig. 6 trace is refused by every entry point
// that meets a stream header — sequential, parallel and streaming decoders
// and both recovery calls — with one message that wraps
// ErrLogFormatMismatch and names the version found and the versions read,
// and recovery leaves the file untouched. (`vyrd -load` is the fifth entry
// point; cmd/vyrd's re-exec test feeds it the same file.)
func TestGoldenV1GobArtifact(t *testing.T) {
	data, err := os.ReadFile("testdata/fig6_v1_gob.log")
	if err != nil {
		t.Fatal(err)
	}
	mem := faultfs.NewMemFS()
	f, err := mem.Create("v1.log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(data)
	f.Close()
	rw, err := mem.OpenRW("v1.log")
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()

	for _, tc := range []struct {
		name string
		read func() error
	}{
		{"ReadLog", func() error { _, err := vyrd.ReadLog(bytes.NewReader(data)); return err }},
		{"ReadLogParallel", func() error { _, err := vyrd.ReadLogParallel(bytes.NewReader(data), 4); return err }},
		{"CheckStream", func() error {
			_, err := vyrd.CheckStream(bytes.NewReader(data), 4, spec.NewMultiset(), vyrd.WithMode(vyrd.ModeIO))
			return err
		}},
		{"RecoverLogReader", func() error { _, _, err := vyrd.RecoverLogReader(bytes.NewReader(data)); return err }},
		{"RecoverLog", func() error { _, _, err := vyrd.RecoverLog(rw); return err }},
	} {
		err := tc.read()
		if !errors.Is(err, vyrd.ErrLogFormatMismatch) {
			t.Fatalf("%s of the v1 artifact: got %v, want ErrLogFormatMismatch", tc.name, err)
		}
		for _, want := range []string{"format version 1", "reads versions 2-3"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not say %q", tc.name, err, want)
			}
		}
		if strings.Contains(err.Error(), "Codec") {
			t.Fatalf("%s: error %q points at a removed API", tc.name, err)
		}
	}
	if !bytes.Equal(mem.Bytes("v1.log"), data) {
		t.Fatal("recovery modified a version-1 artifact it refused")
	}
}

// TestGoldenV2Artifact pins the version-2 migration story: the frozen
// FormatVersion-2 artifact (framed binary, written before per-frame
// checksums) must keep decoding under the current reader — sequential and
// parallel — to the same entries as the regenerated version-3 artifact,
// and the recovery scanner must call it clean.
func TestGoldenV2Artifact(t *testing.T) {
	data, err := os.ReadFile("testdata/fig6_v2.log")
	if err != nil {
		t.Fatal(err)
	}
	if got := data[len("VYRDLOG")]; got != 2 {
		t.Fatalf("artifact header declares version %d, the frozen file must stay version 2", got)
	}

	entries, err := vyrd.ReadLog(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v2 artifact under the current reader: %v", err)
	}
	par, err := vyrd.ReadLogParallel(bytes.NewReader(data), 4)
	if err != nil || len(par) != len(entries) {
		t.Fatalf("parallel read of the v2 artifact: %d entries, %v", len(par), err)
	}

	f, err := os.Open("testdata/fig6.log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cur, err := vyrd.ReadLog(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(cur) {
		t.Fatalf("v2 artifact has %d entries, current %d", len(entries), len(cur))
	}
	for i := range entries {
		a, b := entries[i], cur[i]
		if a.Seq != b.Seq || a.Tid != b.Tid || a.Kind != b.Kind || a.Method != b.Method {
			t.Fatalf("entry %d differs between v2 and v3 artifacts:\n%+v\n%+v", i, a, b)
		}
	}

	// The streaming decoder reads it too: checking straight off the v2
	// bytes prints the same report as checking the current artifact.
	opts := []vyrd.Option{vyrd.WithReplayer(multiset.NewReplayer())}
	streamed, err := vyrd.CheckStream(bytes.NewReader(data), 4, spec.NewMultiset(), opts...)
	if err != nil {
		t.Fatalf("streaming check of the v2 artifact: %v", err)
	}
	want, err := vyrd.CheckEntries(cur, spec.NewMultiset(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.String() != want.String() || want.Ok() {
		t.Fatalf("v2 artifact's streamed report differs from the current artifact's:\nv2: %s\nv3: %s", streamed, want)
	}

	// Recovery scans v2 streams too (no checksums, but framing and sequence
	// contiguity): the artifact is fully valid.
	_, rep, err := vyrd.RecoverLogReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.FormatVersion != 2 || rep.BytesKept != int64(len(data)) ||
		rep.LastSeq != int64(len(entries)) {
		t.Fatalf("recovery scan of the clean v2 artifact: %s", rep)
	}
}

// TestGoldenV3CorruptArtifact pins recovery behavior byte-for-byte: the
// committed artifact is fig6.log with byte 120 XORed (see the go:generate
// line), so the default reader must refuse it with a checksum error and
// recovery must report exactly the frames before the damage.
func TestGoldenV3CorruptArtifact(t *testing.T) {
	data, err := os.ReadFile("testdata/fig6_v3_corrupt.log")
	if err != nil {
		t.Fatal(err)
	}

	if _, err := vyrd.ReadLog(bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted artifact under the default reader: %v, want a checksum error", err)
	}

	entries, rep, err := vyrd.RecoverLogReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := vyrd.RecoveryReport{
		FormatVersion:  3,
		FramesKept:     5,
		SyncMarkers:    0,
		LastSeq:        5,
		BytesKept:      114,
		BytesDropped:   307,
		FirstBadOffset: 114,
		Truncated:      false, // RecoverLogReader never repairs in place
	}
	if rep != want {
		t.Fatalf("recovery report drifted:\ngot  %+v\nwant %+v", rep, want)
	}
	if len(entries) != 5 {
		t.Fatalf("recovered %d entries, want 5", len(entries))
	}
	for i, e := range entries {
		if e.Seq != int64(i+1) {
			t.Fatalf("recovered entry %d has seq %d", i, e.Seq)
		}
	}

	// The kept prefix is bytes the clean artifact also starts with, and the
	// recovered entries remain checkable.
	clean, err := os.ReadFile("testdata/fig6.log")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:rep.BytesKept], clean[:rep.BytesKept]) {
		t.Fatal("recovered prefix differs from the clean artifact's prefix")
	}
	if _, err := vyrd.CheckEntries(entries, spec.NewMultiset(), vyrd.WithMode(vyrd.ModeIO)); err != nil {
		t.Fatalf("checking the recovered prefix: %v", err)
	}
}
