package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/harness"
	"repro/internal/linearize"
	"repro/internal/spec"
	"repro/internal/wal"
	"repro/vyrd"
)

// LinearizeSpecOf derives the linearizability engine's spec from a
// subject's own executable specification: the model the engine searches
// over is that specification, frozen. ok=false when the specification is
// not spec.Linearizable — the stack, register and ledger subjects, which
// nothing checks for linearizability.
func LinearizeSpecOf(newSpec func() core.Spec) (sp *linearize.Spec, ok bool) {
	if _, ok := newSpec().(spec.Linearizable); !ok {
		return nil, false
	}
	return linearize.For(func() spec.Linearizable { return newSpec().(spec.Linearizable) }), true
}

// LinearizeSpec is LinearizeSpecOf for a subject looked up by name. Every
// evaluation and exploration subject with a linearizable specification
// resolves; the composed modular stack is not a subject and does not (its
// log interleaves two vocabularies and is checked per module instead).
func LinearizeSpec(subject string) (*linearize.Spec, error) {
	if s, ok := SubjectByName(subject); ok {
		if sp, ok := LinearizeSpecOf(s.Correct.NewSpec); ok {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("bench: no linearizability spec for subject %q", subject)
}

// linearizeBudget bounds a differential linearizability search. Real
// harness traces stay far below it; hitting it surfaces as LogErr rather
// than a verdict.
const linearizeBudget = 1 << 24

// NewLinearizer builds the streaming linearizability checker over a
// subject's specification, or nil if it is not linearizable (the shape the
// remote SpecFactory wants).
func NewLinearizer(newSpec func() core.Spec) func() core.EntryChecker {
	sp, ok := LinearizeSpecOf(newSpec)
	if !ok {
		return nil
	}
	return func() core.EntryChecker {
		return linearize.NewChecker(sp, linearize.Options{MaxStates: linearizeBudget})
	}
}

// DifferentialVerdict is both engines' verdicts over one recorded log: the
// refinement checker in the subject's natural mode (view when it has a
// replayer) and the linearizability engine over the same entries.
type DifferentialVerdict struct {
	Subject    string
	Refinement *core.Report
	Linearize  *core.Report
	// Repro carries the controlled-schedule repro string when the log came
	// from exploration, so a divergence is replayable with vyrdx.
	Repro string
}

// Agree reports whether the verdicts match. Soundness only guarantees one
// direction (a linearizability failure implies a refinement failure on the
// same complete log); the differential suite asserts empirical agreement
// in both directions on clean runs and planted-race witnesses.
func (d DifferentialVerdict) Agree() bool {
	return d.Refinement.Ok() == d.Linearize.Ok()
}

// String renders the disagreement shape for test failures: both verdicts
// and the repro string to replay the schedule under vyrdx.
func (d DifferentialVerdict) String() string {
	repro := d.Repro
	if repro == "" {
		repro = "(uncontrolled run; no schedule repro)"
	}
	return fmt.Sprintf("subject %s: refinement ok=%v, linearizability ok=%v\nrepro: %s\nrefinement:\n%s\nlinearizability:\n%s",
		d.Subject, d.Refinement.Ok(), d.Linearize.Ok(), repro, d.Refinement, d.Linearize)
}

// Differential checks one recorded log with both engines offline.
func Differential(subject string, t harness.Target, entries []vyrd.Entry, repro string) (DifferentialVerdict, error) {
	sp, err := LinearizeSpec(subject)
	if err != nil {
		return DifferentialVerdict{}, err
	}
	opts := []core.Option{core.WithMode(explore.Mode(t))}
	if explore.Mode(t) == core.ModeView {
		opts = append(opts, core.WithReplayer(t.NewReplayer()))
	}
	ref, err := core.CheckEntries(entries, t.NewSpec(), opts...)
	if err != nil {
		return DifferentialVerdict{}, err
	}
	lin := linearize.CheckEntries(entries, sp, linearize.Options{MaxStates: linearizeBudget})
	if lin.LogErr != "" {
		return DifferentialVerdict{}, fmt.Errorf("bench: linearize gave up on %s: %s", subject, lin.LogErr)
	}
	return DifferentialVerdict{Subject: subject, Refinement: ref, Linearize: lin, Repro: repro}, nil
}

// DifferentialOnline checks the same log through the online plumbing: the
// entries stream through a windowed wal pipeline into a core.Multi fan-out
// running the refinement checker and the linearizability checker
// concurrently, each on its own goroutine — the deployment shape of
// running both verdict engines against one live execution.
func DifferentialOnline(subject string, t harness.Target, entries []vyrd.Entry, repro string) (DifferentialVerdict, error) {
	sp, err := LinearizeSpec(subject)
	if err != nil {
		return DifferentialVerdict{}, err
	}
	all := func(vyrd.Entry) bool { return true }
	refOpts := []core.Option{core.WithMode(explore.Mode(t))}
	if explore.Mode(t) == core.ModeView {
		refOpts = append(refOpts, core.WithReplayer(t.NewReplayer()))
	}
	m, err := core.NewMulti(
		core.Module{Name: "refinement", Spec: t.NewSpec(), Filter: all, Opts: refOpts},
		core.Module{Name: "linearize", Filter: all, NewChecker: func() (core.EntryChecker, error) {
			return linearize.NewChecker(sp, linearize.Options{MaxStates: linearizeBudget}), nil
		}},
	)
	if err != nil {
		return DifferentialVerdict{}, err
	}
	lg := wal.NewWithOptions(wal.LevelView, wal.Options{Window: 1 << 12})
	// Register the reader before the producer starts: an unobserved window
	// log is a bounded recent-suffix buffer and may release its prefix.
	cur := lg.Reader()
	go func() {
		for _, e := range entries {
			lg.Append(e)
		}
		lg.Close()
	}()
	reports := m.Run(cur)
	d := DifferentialVerdict{Subject: subject, Repro: repro}
	for _, mr := range reports {
		switch mr.Module {
		case "refinement":
			d.Refinement = mr.Report
		case "linearize":
			d.Linearize = mr.Report
		}
	}
	if d.Refinement == nil || d.Linearize == nil {
		return DifferentialVerdict{}, fmt.Errorf("bench: fan-out lost a module report")
	}
	if d.Linearize.LogErr != "" {
		return DifferentialVerdict{}, fmt.Errorf("bench: linearize gave up on %s: %s", subject, d.Linearize.LogErr)
	}
	return d, nil
}

// CleanRun produces one uncontrolled run of the subject's correct
// implementation at the I/O level, for clean-log differential rows.
func CleanRun(s Subject, seed int64) []vyrd.Entry {
	res := harness.Run(s.Correct, harness.Config{
		Threads:      3,
		OpsPerThread: 24,
		KeyPool:      6,
		Shrink:       true,
		Seed:         seed,
		Level:        explore.Level(s.Correct),
	})
	return res.Log.Snapshot()
}

// RaceWitness explores the subject's planted race under controlled
// scheduling until refinement flags a schedule, and returns that witness
// log with its repro string. The search is deterministic: same subject,
// same budget, same witness.
func RaceWitness(s Subject, budget int) ([]vyrd.Entry, string, error) {
	found, _, err := explore.Explore(s.Buggy, ExploreSpec(s.Name), budget)
	if err != nil {
		return nil, "", err
	}
	if found == nil {
		return nil, "", fmt.Errorf("bench: no violating schedule for %s in %d tries", s.Name, budget)
	}
	return found.Run.Entries, found.Run.Spec.Repro(), nil
}

// SurfacedRaceWitness explores until a schedule where the planted race has
// reached the call/return surface: refinement rejects it AND the
// linearizability engine rejects it. The earliest refinement witnesses are
// often linearizable histories — the replica or view fingerprint is already
// corrupted while every return value still has an innocent explanation;
// that head start is exactly the paper's Section 2 argument for commit
// annotations. SkippedLinClean counts those, so callers can report the gap.
func SurfacedRaceWitness(s Subject, budget int) (entries []vyrd.Entry, repro string, skippedLinClean int, err error) {
	sp, err := LinearizeSpec(s.Name)
	if err != nil {
		return nil, "", 0, err
	}
	base := ExploreSpec(s.Name)
	for i := 0; i < budget; i++ {
		ssp := base
		ssp.Seed = base.Seed + int64(i)
		ssp.ChangePoints, ssp.Skips = nil, nil
		r, rerr := explore.RunSpec(s.Buggy, ssp)
		if rerr != nil {
			return nil, "", skippedLinClean, rerr
		}
		if r.Sched.FreeRun || !r.Violating() {
			continue
		}
		lin := linearize.CheckEntries(r.Entries, sp, linearize.Options{MaxStates: linearizeBudget})
		if lin.LogErr != "" {
			return nil, "", skippedLinClean, fmt.Errorf("bench: linearize gave up on %s: %s", s.Name, lin.LogErr)
		}
		if lin.Ok() {
			skippedLinClean++
			continue
		}
		return r.Entries, r.Spec.Repro(), skippedLinClean, nil
	}
	return nil, "", skippedLinClean, fmt.Errorf(
		"bench: no surfaced race witness for %s in %d schedules (%d refinement-only witnesses skipped)",
		s.Name, budget, skippedLinClean)
}
