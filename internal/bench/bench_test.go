package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/racecheck"
	"repro/vyrd"
)

// The paper tables are exercised at full scale by cmd/vyrdbench; these
// tests validate the machinery at miniature scale.

func TestSubjectsComplete(t *testing.T) {
	subjects := Subjects()
	if len(subjects) != 6 {
		t.Fatalf("expected the 6 Table 1 subjects, got %d", len(subjects))
	}
	for _, s := range subjects {
		if s.Correct.New == nil || s.Buggy.New == nil || s.Correct.NewSpec == nil || s.Correct.NewReplayer == nil {
			t.Fatalf("subject %s incompletely wired", s.Name)
		}
		if _, ok := SubjectByName(s.Name); !ok {
			t.Fatalf("SubjectByName misses %s", s.Name)
		}
	}
	if _, ok := SubjectByName("nope"); ok {
		t.Fatal("SubjectByName invented a subject")
	}

	// Every subject some engine checks for linearizability resolves its
	// linearizer from its own specification — by interface, not by a table
	// of subject names — for the correct and the buggy target alike, and
	// through the by-name lookup and the remote registry too.
	linearizable := append(AllSubjects(), ExplorationSubjects()...)
	linearizable = append(linearizable, LinearizeOnlySubjects()...)
	reg := Registry()
	for _, s := range linearizable {
		for _, target := range []harness.Target{s.Correct, s.Buggy} {
			if NewLinearizer(target.NewSpec) == nil {
				t.Fatalf("%s: specification %T is not spec.Linearizable", s.Name, target.NewSpec())
			}
		}
		if _, err := LinearizeSpec(s.Name); err != nil {
			t.Fatal(err)
		}
		if f, ok := reg.Lookup(s.Name); !ok || f.NewLinearizer == nil {
			t.Fatalf("%s: the registry offers no linearizer", s.Name)
		}
	}
	// The stack, register and ledger specifications carry no Clone: no
	// subject checks them for linearizability.
	for _, s := range append(WeakMemorySubjects(), TemporalSubjects()...) {
		if NewLinearizer(s.Correct.NewSpec) != nil {
			t.Fatalf("%s: unexpectedly linearizable", s.Name)
		}
	}
	// The composed stack interleaves two vocabularies in one log and is
	// checked per module: it is not a subject and resolves no linearizer.
	if _, err := LinearizeSpec("BLinkTree+Store"); err == nil {
		t.Fatal("the composed BLinkTree+Store stack resolved a linearizability spec")
	}
	if f, ok := reg.Lookup("BLinkTree+Store"); !ok || f.NewLinearizer != nil {
		t.Fatalf("the composed stack's registry entry (found %v) offers a linearizer", ok)
	}
}

func TestTable1SingleCellRuns(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("intentional data race: the injected bug would trip the race detector before VYRD sees it")
	}
	s, _ := SubjectByName("Multiset-Vector")
	row := table1Cell(s, 4, Table1Config{Reps: 2, OpsPerThread: 150, Seed: 1})
	if row.Subject != "Multiset-Vector" || row.Threads != 4 {
		t.Fatalf("row metadata: %+v", row)
	}
	if row.ViewAvg == 0 && row.ViewMiss == row.Reps {
		t.Log("bug did not manifest at this tiny scale; acceptable for the sanity test")
	}
	if row.CPURatio <= 0 {
		t.Fatalf("CPU ratio not measured: %+v", row)
	}
	var buf bytes.Buffer
	WriteTable1(&buf, []Table1Row{row})
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatalf("rendering: %s", buf.String())
	}
}

func TestTable2Runs(t *testing.T) {
	rows := Table2(Table2Config{Threads: 2, OpsPerThread: 60, Reps: 1, Seed: 1})
	if len(rows) != 5 {
		t.Fatalf("expected 5 Table 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.ProgAlone <= 0 {
			t.Fatalf("row %s has no baseline time", r.Subject)
		}
	}
	var buf bytes.Buffer
	WriteTable2(&buf, rows)
	if !strings.Contains(buf.String(), "Overhead of logging") {
		t.Fatalf("rendering: %s", buf.String())
	}
}

func TestTable3Runs(t *testing.T) {
	rows := Table3(Table3Config{Scale: 1, Reps: 1, Seed: 1})
	if len(rows) != 4 {
		t.Fatalf("expected 4 Table 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.ProgAlone <= 0 || r.ProgLogging <= 0 || r.ProgPlusVyrd <= 0 || r.VyrdOffline <= 0 {
			t.Fatalf("row %s has an unmeasured stage: %+v", r.Subject, r)
		}
	}
	var buf bytes.Buffer
	WriteTable3(&buf, rows)
	if !strings.Contains(buf.String(), "Running time breakdown") {
		t.Fatalf("rendering: %s", buf.String())
	}
}

// TestLogPipelineBoundedRetention is the end-to-end acceptance check for the
// bounded-memory online mode: a full harness run with view-level online
// checking over a windowed, truncating log must check clean, retain at most
// Window plus two segments of entries at its peak, and actually release
// storage along the way.
func TestLogPipelineBoundedRetention(t *testing.T) {
	opts := vyrd.LogOptions{SegmentSize: 128, Window: 1 << 10}
	bound := int64(opts.Window + 2*opts.SegmentSize)
	for _, name := range []string{"Multiset-Vector", "Multiset-Array"} {
		s, _ := SubjectByName(name)
		target := s.Correct
		cfg := baseConfig(4, 800, 1, vyrd.LevelView)
		log := vyrd.NewLogWith(cfg.Level, opts)
		wait, err := log.StartChecker(target.NewSpec(),
			core.WithMode(core.ModeView), core.WithReplayer(target.NewReplayer()))
		if err != nil {
			t.Fatal(err)
		}
		harness.RunOnLog(target, cfg, log)
		rep, stats := wait(), log.Stats()
		if !rep.Ok() {
			t.Errorf("%s: online check reported a violation on a correct subject: %s", name, rep)
		}
		if stats.PeakRetainedEntries > bound {
			t.Errorf("%s: peak retained %d entries exceeds bound %d (stats: %s)",
				name, stats.PeakRetainedEntries, bound, stats)
		}
		if stats.TruncatedSegments == 0 {
			t.Errorf("%s: truncation never released a segment (stats: %s)", name, stats)
		}
		if stats.Appends == 0 {
			t.Errorf("%s: no entries logged", name)
		}
	}
}
