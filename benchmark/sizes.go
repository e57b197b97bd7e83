package main

import "time"

// sizes fixes how much work one repetition of each path does and how often
// it repeats. A workload measures its own path: at the full size below, each
// repetition with 0.3 s and more of timed work behind every end-to-end number
// (0.2 s behind prog_methods_per_s, the cheapest pass), for as long as
// -seconds allows and floorReps times at the least. The driver compares
// every end-to-end metric on every workload, so the five other paths run
// too, as a background pass: reduced inputs, bgReps repetitions, milliseconds
// per cell. A background figure shows that the path still works and roughly
// how fast; only a path's own workload measures it at a size a claim can
// rest on, and the report labels every row with which of the two it is.
type sizes struct {
	ownReps int // timed repetitions of the own path when -seconds does not apply (-trace, -quick)
	bgReps  int // timed repetitions of every other path's background pass
	// bgCap is the wall time after which a background pass that has its
	// floorReps stops repeating (0: never). A quiet box does not reach it; a
	// shared host that runs everything three times slower for minutes would
	// otherwise stretch a 20 s invocation past what the driver allows.
	bgCap time.Duration

	onlineOps      int     // ops per harness thread, online-live
	replayOps      int     // ops per harness thread of each recorded trace
	replayTraces   int     // recordings per subject
	durableOps     int     // ops per harness thread, record-durable
	streamMethods  int     // methods in one fleet-stream session trace
	streamSessions int     // sessions per repetition, split over the T connections
	churnMethods   int     // methods in one fleet-churn session trace
	churnSessions  int     // sessions per repetition, split over the T connections
	cellSeconds    float64 // wall time one explore cell's schedule budget is sized to
	cellSchedules  int     // least schedule budget of an explore cell
	findOnce       bool    // the planted-bug searches run in the first repetition only
	schedSeeds     int     // RunSpec seeds per subject, sched per-layer metrics
	openSessions   int     // sessions timed for remote.open_ms
}

// background is every path's size when another workload is being measured.
func background() sizes {
	return sizes{
		ownReps:        5,
		bgReps:         5,
		bgCap:          3 * time.Second,
		onlineOps:      12_000,
		replayOps:      600,
		replayTraces:   5,
		durableOps:     10_000,
		streamMethods:  4_400, // ~15 k entries
		streamSessions: 16,
		churnMethods:   440, // ~1.5 k entries
		churnSessions:  104, // 102 clean ones: p90 keeps 10 beyond it
		cellSeconds:    0.05,
		cellSchedules:  3,
		findOnce:       true,
		schedSeeds:     15,
		openSessions:   30,
	}
}

// sizesFor returns the sizes of a run that measures the named workload: its
// own path at full size, the rest at background size. The full sizes are the
// issue's, cut where six repetitions of them do not fit the nine or ten
// seconds a driver run has for the own path (README, "Own path and
// background passes").
func sizesFor(own string) sizes {
	sz := background()
	switch own {
	case "online-live":
		sz.onlineOps = 60_000
	case "offline-replay":
		sz.replayOps = 2_400
	case "record-durable":
		sz.durableOps = 70_000
	case "fleet-stream":
		sz.streamSessions = 40
	case "fleet-churn":
		sz.churnSessions = 208
	case "explore-search":
		// A repetition is the ten searches (1.1 s) plus ten cells, and five
		// of them must fit: 0.1 s a cell, twice that for the slowest.
		sz.cellSeconds = 0.1
		sz.cellSchedules = 6
		sz.findOnce = false
	}
	return sz
}

// tracedSizes cuts the repetition counts of a -trace invocation, which runs
// every path twice, without spans and with, and then the isolated stages. Its
// untraced pass only prices the tracing; end-to-end figures come from an
// untraced invocation.
func tracedSizes(sz sizes) sizes {
	sz.ownReps, sz.bgReps = 3, 2
	return sz
}

// quickSizes makes every path finish in well under a second: a smoke run
// whose numbers are not for comparison.
func quickSizes() sizes {
	return sizes{
		ownReps:        2,
		bgReps:         1, // plus the discarded warm-up: two repetitions
		onlineOps:      500,
		replayOps:      500,
		replayTraces:   1,
		durableOps:     500,
		streamMethods:  440,
		streamSessions: 4,
		churnMethods:   110,
		churnSessions:  104,
		cellSeconds:    0.01,
		cellSchedules:  2,
		schedSeeds:     3,
		openSessions:   3,
	}
}
