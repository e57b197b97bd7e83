// Package bench holds the subject registry — every evaluation subject with
// its correct and buggy targets, exploration spec, linearizability model and
// built-in temporal properties, plus the differential oracles that hold the
// verdict engines equal on them — and regenerates the paper's evaluation
// tables (Section 7): the time-to-detection comparison of I/O vs view
// refinement (Table 1), the logging overhead by level (Table 2), and the
// running-time breakdown of program / logging / online checking / offline
// checking (Table 3). Performance measurement lives in benchmark/.
//
// Absolute times are this machine's, not the paper's 2.4 GHz Pentium; the
// comparisons of interest are the shapes: view refinement detects
// state-corrupting bugs after fewer methods than I/O refinement (but no
// earlier for the Vector observer bug), view-level logging costs more than
// I/O-level logging (markedly so for write-heavy subjects), and online
// checking adds tolerable overhead.
package bench

import (
	"time"

	"repro/internal/blinkstore"
	"repro/internal/blinktree"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/jsbuffer"
	"repro/internal/jvector"
	"repro/internal/ledger"
	"repro/internal/mstree"
	"repro/internal/msvector"
	"repro/internal/multiset"
	"repro/internal/scanfs"
	"repro/internal/seqlock"
	"repro/internal/tstack"
	"repro/vyrd"
)

// Subject pairs a buggy and a correct target for one paper row.
type Subject struct {
	Name    string
	BugName string
	Correct harness.Target
	Buggy   harness.Target
}

// Subjects returns the paper's evaluation subjects in Table 1 order.
func Subjects() []Subject {
	return []Subject{
		{
			Name:    "Multiset-Vector",
			BugName: "Moving acquire in FindSlot",
			Correct: msvector.Target(msvector.BugNone),
			Buggy:   msvector.Target(msvector.BugFindSlotAcquire),
		},
		{
			Name:    "Multiset-BinaryTree",
			BugName: "Unlocking parent before insertion",
			Correct: mstree.Target(mstree.BugNone),
			Buggy:   mstree.Target(mstree.BugUnlockParent),
		},
		{
			Name:    "java.util.Vector",
			BugName: "Taking length non-atomically in lastIndexOf()",
			Correct: jvector.Target(jvector.BugNone),
			Buggy:   jvector.Target(jvector.BugLastIndexOf),
		},
		{
			Name:    "java.util.StringBuffer",
			BugName: "Copying from an unprotected StringBuffer",
			Correct: jsbuffer.Target(jsbuffer.BugNone),
			Buggy:   jsbuffer.Target(jsbuffer.BugUnprotectedCopy),
		},
		{
			Name:    "BLinkTree",
			BugName: "Allowing duplicated data nodes",
			Correct: blinktree.Target(6, blinktree.BugNone),
			Buggy:   blinktree.Target(6, blinktree.BugDuplicateInsert),
		},
		{
			Name:    "Cache",
			BugName: "Writing an unprotected dirty cache entry",
			Correct: cache.Target(cache.BugNone),
			Buggy:   cache.Target(cache.BugUnprotectedWrite),
		},
	}
}

// ExtraSubjects returns checkable subjects beyond the paper's Table 1
// rows: the array multiset of the running example (Figs. 2-6) and the Scan
// file system of Section 7.3.
func ExtraSubjects() []Subject {
	return []Subject{
		{
			Name:    "Multiset-Array",
			BugName: "Fig. 5: acquire moved after the emptiness check",
			Correct: multiset.Target(64, multiset.BugNone),
			Buggy:   multiset.Target(32, multiset.BugFindSlotAcquire),
		},
		{
			Name:    "ScanFS",
			BugName: "Writing an unprotected dirty cache block (Section 7.3)",
			Correct: scanfs.Target(scanfs.BugNone),
			Buggy:   scanfs.Target(scanfs.BugUnprotectedBlockWrite),
		},
		{
			Name:    "BLinkTree-on-Cache",
			BugName: "Allowing duplicated data nodes (over the Fig. 10 storage stack)",
			Correct: blinkstore.Target(6, blinkstore.BugNone),
			Buggy:   blinkstore.Target(6, blinkstore.BugDuplicateInsert),
		},
	}
}

// AllSubjects returns the Table 1 subjects followed by the extras.
func AllSubjects() []Subject {
	return append(Subjects(), ExtraSubjects()...)
}

// ExplorationSubjects returns the planted-bug variants that schedule
// exploration (cmd/vyrdx, internal/explore) must find: races whose windows
// contain no Gosched widening — only controlled-scheduler yield points —
// so they are essentially unschedulable under wall-clock stress but
// reachable (and reproducible) under seeded PCT scheduling. Sizes are
// smaller than the stress subjects': shorter schedules to search and
// shrink.
func ExplorationSubjects() []Subject {
	return []Subject{
		{
			Name:    "Multiset-TornPair",
			BugName: "Torn two-slot validation in InsertPair (no Gosched window)",
			Correct: multiset.Target(16, multiset.BugNone),
			Buggy:   multiset.Target(16, multiset.BugTornPair),
		},
		{
			Name:    "BLinkTree-DroppedLock",
			BugName: "Leaf lock dropped between presence check and add",
			Correct: blinktree.Target(4, blinktree.BugNone),
			Buggy:   blinktree.Target(4, blinktree.BugDroppedLock),
		},
		{
			Name:    "Cache-TornUpdate",
			BugName: "Torn in-place dirty-entry copy (no Gosched window)",
			Correct: cache.TargetSized(cache.BugNone, 3, 32),
			Buggy:   cache.TargetSized(cache.BugTornUpdate, 3, 32),
		},
	}
}

// WeakMemorySubjects returns the lock-free atomics subjects in the spirit
// of the C11 weak-memory library benchmarks: no mutual exclusion anywhere,
// every shared access an annotated atomic, correctness resting entirely on
// operation ordering. Their planted bugs are invisible to the race detector
// (all accesses are atomic) and to wall-clock stress (the windows are one
// scheduler step wide); they are aimed at DPOR exploration, whose
// access-typed yields see exactly which loads and stores conflict. They
// are checked in I/O mode — their return values are self-validating — so
// they are kept out of ExplorationSubjects (a view-mode list).
func WeakMemorySubjects() []Subject {
	return []Subject{
		{
			Name:    "TreiberStack-PublishRace",
			BugName: "CAS publishes node before linking next (one-step window)",
			Correct: tstack.Target(tstack.BugNone),
			Buggy:   tstack.Target(tstack.BugPublishBeforeLink),
		},
		{
			Name:    "Seqlock-TornRead",
			BugName: "Reader skips sequence validation, accepts torn word pair",
			Correct: seqlock.Target(seqlock.BugNone),
			Buggy:   seqlock.Target(seqlock.BugTornRead),
		},
	}
}

// TemporalSubjects returns the planted-bug variants aimed at the temporal
// engine (ModeLTL): bugs that corrupt no state — refinement and
// linearizability stay clean — but leave a forbidden pattern in the log.
// The ledger's reversed lock acquisition is the canonical example: the
// transfer still moves the money atomically, only the locking discipline
// (observable through its lock-acq/lock-rel write actions) is broken.
func TemporalSubjects() []Subject {
	return []Subject{
		{
			Name:    "Ledger-LockPair",
			BugName: "Hint-gated reversed lock order in Transfer (no Gosched window)",
			Correct: ledger.Target(ledger.BugNone),
			Buggy:   ledger.Target(ledger.BugReversedLocks),
		},
	}
}

// LinearizeOnlySubjects returns subjects only the linearizability engine
// can verify: their instrumentation is call/return-only (no commit
// actions), so refinement rejects every run by construction
// (ViolationInstrumentation) — the black-box library class the engine
// opens up. They are excluded from the evaluation tables and the
// differential agreement suite.
func LinearizeOnlySubjects() []Subject {
	return []Subject{
		{
			Name:    "Multiset-NoCommit",
			BugName: "Moving acquire in FindSlot (annotation-free wrapper)",
			Correct: multiset.NoCommitTarget(64, multiset.BugNone),
			Buggy:   multiset.NoCommitTarget(8, multiset.BugFindSlotAcquire),
		},
	}
}

// SubjectByName returns the subject with the given name, or false. It
// searches the evaluation subjects, the exploration variants and the
// linearize-only subjects.
func SubjectByName(name string) (Subject, bool) {
	all := append(AllSubjects(), ExplorationSubjects()...)
	all = append(all, WeakMemorySubjects()...)
	all = append(all, TemporalSubjects()...)
	all = append(all, LinearizeOnlySubjects()...)
	for _, s := range all {
		if s.Name == name {
			return s, true
		}
	}
	return Subject{}, false
}

// baseConfig is the shared harness shape for table runs.
func baseConfig(threads, ops int, seed int64, level vyrd.Level) harness.Config {
	return harness.Config{
		Threads:      threads,
		OpsPerThread: ops,
		KeyPool:      16,
		Shrink:       true,
		Seed:         seed,
		Level:        level,
	}
}

// checkTimed offline-checks a trace and measures the CPU-side wall time of
// the check itself (the verification thread's work).
func checkTimed(t harness.Target, res harness.Result, mode core.Mode, failFast bool) (*core.Report, time.Duration, error) {
	entries := res.Log.Snapshot()
	opts := []core.Option{core.WithMode(mode), core.WithFailFast(failFast)}
	if mode == core.ModeView {
		opts = append(opts, core.WithReplayer(t.NewReplayer()))
	}
	start := time.Now()
	rep, err := core.CheckEntries(entries, t.NewSpec(), opts...)
	return rep, time.Since(start), err
}
