package bench

import "repro/internal/sched"

// ExploreSpec returns the base schedule-exploration spec for a subject:
// the harness shape (threads/ops/pool) and PCT parameters (d, k) that
// vyrdx, the benchmark's explore-search workload and the CI smoke all
// share, so a repro string printed by one replays under the others. K is
// sized to the observed schedule lengths of each shape (a few probe yields
// per op per thread, plus daemon passes).
func ExploreSpec(subject string) sched.Spec {
	sp := sched.Spec{Subject: subject, Threads: 3, Ops: 8, KeyPool: 4, D: 3, K: 300}
	switch subject {
	case "Multiset-TornPair":
		sp.K = 200 // no daemon: schedules are shorter
	case "Cache-TornUpdate":
		// Fewer, fatter ops: each Write copies a 32-byte buffer with
		// yields inside, so schedules are long per op.
		sp.Ops, sp.KeyPool = 6, 6
	case "TreiberStack-PublishRace":
		// Lock-free: a handful of ops suffices — the publish window is one
		// step wide, so depth matters less than ordering, and the shorter
		// trace keeps the first-level race frontier small.
		sp.Ops = 4
	case "Seqlock-TornRead":
		// Spin-wait retries stretch schedules; keep ops low and the step
		// cap generous enough for waited-out write windows.
		sp.Ops, sp.K = 6, 400
	case "Ledger-LockPair":
		// The inversion needs a Deposit parked in its one-yield hint
		// window while another thread runs a whole Transfer; short
		// schedules with frequent transfers reach it quickly.
		sp.Ops, sp.K = 10, 200
	}
	return sp
}

// ExploreStrategies are the search strategies the strategy-differential
// suite holds against each other.
var ExploreStrategies = []string{"pct", sched.StrategyDPOR}
