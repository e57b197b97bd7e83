package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/wal"
)

// collectEngine records every entry it is fed, in order.
type collectEngine struct {
	seqs []int64
}

func (c *collectEngine) Feed(e event.Entry) { c.seqs = append(c.seqs, e.Seq) }
func (c *collectEngine) Finish() []core.ModuleReport {
	return []core.ModuleReport{{Module: "collect", Report: &core.Report{}}}
}

// TestSchedulerDrainsManyTasks drives many concurrent producer/log/task
// triples over a two-worker pool: every task must see its own log's
// entries, in order, exactly once, and finish after close — the lost-
// wakeup hazards (append racing the idle transition, close racing a
// running slice) are exactly what the state machine must survive.
func TestSchedulerDrainsManyTasks(t *testing.T) {
	const (
		tasks   = 32
		entries = 400
	)
	s := NewScheduler(2, 64)
	defer s.Stop()

	type ses struct {
		lg     *wal.Log
		task   *Task
		engine *collectEngine
		recv   atomic.Int64
	}
	all := make([]*ses, tasks)
	for i := range all {
		lg := wal.NewWithOptions(wal.LevelIO, wal.Options{Window: 128})
		ss := &ses{lg: lg, engine: &collectEngine{}}
		ss.task = s.Register(fmt.Sprintf("tenant-%d", i%3), lg.Reader(), ss.engine, ss.recv.Load, nil)
		all[i] = ss
	}

	var wg sync.WaitGroup
	for _, ss := range all {
		wg.Add(1)
		go func(ss *ses) {
			defer wg.Done()
			for seq := int64(1); seq <= entries; seq++ {
				ss.lg.Append(event.Entry{Seq: seq, Kind: event.KindCall, Method: "op"})
				ss.recv.Store(seq)
				ss.task.Wake()
				if seq%97 == 0 {
					// Let the task go idle sometimes, so the test
					// exercises the idle->queued wake path, not just
					// requeues.
					time.Sleep(200 * time.Microsecond)
				}
			}
			ss.lg.Close()
			ss.task.Close(entries)
		}(ss)
	}
	wg.Wait()

	for i, ss := range all {
		reports := ss.task.Wait()
		if len(reports) != 1 || reports[0].Module != "collect" {
			t.Fatalf("task %d: unexpected reports %v", i, reports)
		}
		if len(ss.engine.seqs) != entries {
			t.Fatalf("task %d: fed %d entries, want %d", i, len(ss.engine.seqs), entries)
		}
		for j, seq := range ss.engine.seqs {
			if seq != int64(j+1) {
				t.Fatalf("task %d: out of order at %d: got seq %d", i, j, seq)
			}
		}
		if got := ss.task.Fed(); got != entries {
			t.Fatalf("task %d: Fed()=%d, want %d", i, got, entries)
		}
	}

	st := s.Stats()
	if st.Finished != tasks {
		t.Fatalf("Stats.Finished=%d, want %d", st.Finished, tasks)
	}
	if st.EntriesFed != tasks*entries {
		t.Fatalf("Stats.EntriesFed=%d, want %d", st.EntriesFed, tasks*entries)
	}
	if st.Tasks != 0 {
		t.Fatalf("Stats.Tasks=%d after all finished, want 0", st.Tasks)
	}
	if st.Workers != 2 {
		t.Fatalf("Stats.Workers=%d, want 2", st.Workers)
	}
}

// TestSchedulerWaitIdempotent pins that Wait can be called repeatedly
// and from multiple goroutines (the fin path and a drain force-finish
// race exactly this way).
func TestSchedulerWaitIdempotent(t *testing.T) {
	s := NewScheduler(1, 0)
	defer s.Stop()
	lg := wal.NewWithOptions(wal.LevelIO, wal.Options{Window: 16})
	var recv atomic.Int64
	task := s.Register("", lg.Reader(), &collectEngine{}, recv.Load, nil)
	lg.Append(event.Entry{Seq: 1, Kind: event.KindCall, Method: "op"})
	recv.Store(1)
	task.Wake()
	lg.Close()
	task.Close(1)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := task.Wait(); len(got) != 1 {
				t.Errorf("Wait returned %d reports, want 1", len(got))
			}
		}()
	}
	wg.Wait()
}

// TestSchedulerOnFed pins the consumption callback: the per-slice
// counts must sum to the entry total.
func TestSchedulerOnFed(t *testing.T) {
	s := NewScheduler(1, 7) // odd budget: slices of uneven size
	defer s.Stop()
	lg := wal.NewWithOptions(wal.LevelIO, wal.Options{Window: 256})
	var recv, seen atomic.Int64
	task := s.Register("", lg.Reader(), &collectEngine{}, recv.Load, func(n int) {
		seen.Add(int64(n))
	})
	const entries = 100
	for seq := int64(1); seq <= entries; seq++ {
		lg.Append(event.Entry{Seq: seq, Kind: event.KindCall, Method: "op"})
		recv.Store(seq)
		task.Wake()
	}
	lg.Close()
	task.Close(entries)
	task.Wait()
	if seen.Load() != entries {
		t.Fatalf("onFed saw %d entries, want %d", seen.Load(), entries)
	}
}

func TestSchedulerDefaults(t *testing.T) {
	s := NewScheduler(0, 0)
	defer s.Stop()
	if s.Workers() <= 0 {
		t.Fatalf("default worker count %d", s.Workers())
	}
	if s.budget != DefaultSliceBudget {
		t.Fatalf("default budget %d, want %d", s.budget, DefaultSliceBudget)
	}
	// Stop is idempotent.
	s.Stop()
}

// snapshotEngine is a collectEngine whose Finish first runs a snapshot
// hook on the finishing worker.
type snapshotEngine struct {
	collectEngine
	snap func()
}

func (e *snapshotEngine) Finish() []core.ModuleReport {
	e.snap()
	return e.collectEngine.Finish()
}

// TestSchedulerTenantFairness is the DRR starvation gate: a tenant with
// one modest session must not be starved by a tenant with many hot
// sessions sharing the same single-worker pool. Under the old FIFO
// pickup every task got an equal share, so the noisy tenant's eight
// tasks took ~8x the service of the quiet tenant's one; under deficit
// round robin the two tenants split the worker evenly, so by the time
// the quiet session finishes the noisy tenant has been fed roughly the
// same entry count — not eight times it.
func TestSchedulerTenantFairness(t *testing.T) {
	const (
		noisyTasks   = 8
		noisyEntries = 4000
		quietEntries = 2000
	)
	s := NewScheduler(1, 16)
	defer s.Stop()

	appendAll := func(lg *wal.Log, n int64) {
		for seq := int64(1); seq <= n; seq++ {
			lg.Append(event.Entry{Seq: seq, Kind: event.KindCall, Method: "op"})
		}
	}

	// The noisy tenant: many tasks, every log fully appended up front so
	// each task is runnable the whole time.
	type ses struct {
		lg   *wal.Log
		task *Task
		recv atomic.Int64
	}
	noisy := make([]*ses, noisyTasks)
	for i := range noisy {
		lg := wal.NewWithOptions(wal.LevelIO, wal.Options{Window: 1 << 13})
		ss := &ses{lg: lg}
		ss.task = s.Register("noisy", lg.Reader(), &collectEngine{}, ss.recv.Load, nil)
		appendAll(lg, noisyEntries)
		ss.recv.Store(noisyEntries)
		noisy[i] = ss
	}

	// The quiet engine snapshots the noisy tenant's consumption at the
	// exact instant the quiet session finishes (Finish runs on the worker
	// that drained it); measuring after Wait would let the now-uncontended
	// worker blast through the noisy backlog first.
	var noisyFedAtQuietFinish atomic.Int64
	quietLog := wal.NewWithOptions(wal.LevelIO, wal.Options{Window: 1 << 13})
	var quietRecv atomic.Int64
	quiet := s.Register("quiet", quietLog.Reader(), &snapshotEngine{snap: func() {
		var sum int64
		for _, ss := range noisy {
			sum += ss.task.Fed()
		}
		noisyFedAtQuietFinish.Store(sum)
	}}, quietRecv.Load, nil)
	appendAll(quietLog, quietEntries)
	quietRecv.Store(quietEntries)
	quietLog.Close()

	// Wake the noisy tenant first — the worst case for the quiet one —
	// then race the quiet session to its verdict.
	for _, ss := range noisy {
		ss.task.Wake()
	}
	quiet.Close(quietEntries)

	quiet.Wait()
	noisyFed := noisyFedAtQuietFinish.Load()

	// DRR predicts noisyFed ~= quietEntries at this instant (each tenant
	// gets one quantum per round); FIFO pickup would predict ~8x. The 3x
	// bound leaves room for the noisy head start and in-flight slices
	// while cleanly separating the two regimes.
	if noisyFed > 3*quietEntries {
		t.Fatalf("noisy tenant fed %d entries by the time the quiet session (%d entries) finished; fair pickup predicts ~%d",
			noisyFed, quietEntries, quietEntries)
	}
	t.Logf("quiet finished after noisy tenant was fed %d entries (quiet=%d)", noisyFed, quietEntries)

	for _, ss := range noisy {
		ss.lg.Close()
		ss.task.Close(noisyEntries)
	}
	for _, ss := range noisy {
		ss.task.Wait()
	}
}
