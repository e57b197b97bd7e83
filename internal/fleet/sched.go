// Package fleet is vyrdd's multi-tenant service tier: a session
// scheduler that multiplexes many checker pipelines over a bounded
// worker pool, per-tenant admission quotas with ack-protocol
// backpressure, consistent-hash routing of session keys across a static
// cluster, a client-side failover runner riding the session-resume
// machinery, and a load generator that measures max-sessions/box.
//
// The scheduler replaces goroutine-per-session checking. A session
// becomes a Task: a log reader plus a checker engine. Ingest wakes the
// task after every append; a bounded pool of workers pops runnable
// tasks and feeds each a cooperative time slice (SliceBudget entries)
// before requeueing it, so thousands of mostly-idle sessions cost zero
// workers and a hot session cannot starve the rest.
//
// Task pickup is deficit-round-robin fair across tenants, not FIFO: each
// tenant owns a queue of its runnable tasks and a credit counter topped
// up by a fixed quantum of entries per round-robin visit. Workers serve
// the tenant at the head of the active ring while its credit lasts,
// charge the entries a slice actually consumed after the slice runs, and
// rotate to the next tenant when the credit is spent — so a tenant with
// a thousand hot sessions and a tenant with one split the pool evenly
// instead of 1000:1. Credit is reset when a tenant's queue drains, so
// idle tenants cannot bank service.
package fleet

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/wal"
)

// Engine is the checker a scheduled task drives: entries in, one
// module-report slice out. The server adapts its three session shapes
// (single checker, linearizer, modular fan-out) onto it. Feed must be
// non-blocking and tolerate entries after a verdict is decided (the
// core.EntryChecker contract), because the scheduler always drains the
// log to keep the capture window from wedging ingest.
type Engine interface {
	Feed(e event.Entry)
	Finish() []core.ModuleReport
}

// Task lifecycle states. A task is in the run queue exactly when its
// state is taskQueued; taskRunWake marks a wake that arrived while a
// worker held the task, so the worker re-checks instead of idling it.
const (
	taskIdle int32 = iota
	taskQueued
	taskRunning
	taskRunWake
	taskDone
)

// Task is one session's entry in the scheduler: a reader over the
// session log, the engine consuming it, and the wake-state machine that
// keeps it runnable exactly while it has pending entries.
type Task struct {
	s      *Scheduler
	tq     *tenantQueue
	cur    wal.Reader
	engine Engine
	// appended reports how many entries have been appended to the log so
	// far (the server's contiguous ingest high-water mark). The idle
	// decision compares it against cur.Pos() rather than trusting a false
	// TryNext, so a task is never parked with entries pending.
	appended func() int64
	// onFed, when non-nil, observes every slice's consumption (window
	// accounting hooks).
	onFed func(n int)

	state      atomic.Int32
	closing    atomic.Bool
	closeTotal atomic.Int64
	fed        atomic.Int64
	done       chan []core.ModuleReport
}

// SchedStats is a point-in-time snapshot of the pool.
type SchedStats struct {
	// Workers is the pool size; Busy is how many are mid-slice.
	Workers int   `json:"workers"`
	Busy    int64 `json:"busy"`
	// Runnable is the run-queue length (sessions with pending entries
	// waiting for a worker); TenantsActive is how many tenants currently
	// hold runnable sessions (the DRR ring length).
	Runnable      int `json:"runnable"`
	TenantsActive int `json:"tenants_active"`
	// Tasks is the number of live registered tasks.
	Tasks int64 `json:"tasks"`
	// Slices and EntriesFed count cooperative time slices executed and
	// entries fed through engines since start.
	Slices     int64 `json:"slices_total"`
	EntriesFed int64 `json:"entries_fed_total"`
	// Finished counts tasks that drained a closed log and reported.
	Finished int64 `json:"tasks_finished_total"`
}

// Utilization is the busy fraction of the pool, 0..1.
func (st SchedStats) Utilization() float64 {
	if st.Workers == 0 {
		return 0
	}
	return float64(st.Busy) / float64(st.Workers)
}

// tenantQueue is one tenant's slot in the deficit-round-robin pickup: a
// FIFO of the tenant's runnable tasks plus the entry credit it has left
// this round. A tenantQueue is in the scheduler's active ring exactly
// while it holds at least one runnable task.
type tenantQueue struct {
	name   string
	credit int64
	tasks  []*Task
	head   int
	active bool
}

func (q *tenantQueue) runnable() int { return len(q.tasks) - q.head }

// Scheduler multiplexes tasks over a fixed worker pool.
type Scheduler struct {
	budget  int
	quantum int64
	workers int

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantQueue
	ring    []*tenantQueue
	stopped bool

	busy     atomic.Int64
	tasks    atomic.Int64
	slices   atomic.Int64
	entries  atomic.Int64
	finished atomic.Int64
	wg       sync.WaitGroup
}

// DefaultSliceBudget is the per-slice entry budget: small enough that a
// hot session yields within microseconds, large enough to amortize the
// queue round-trip.
const DefaultSliceBudget = 512

// QuantumSlices sizes the per-tenant DRR quantum as a multiple of the
// slice budget: each round-robin visit tops a tenant's credit up by this
// many full slices' worth of entries, so a busy tenant gets a meaningful
// burst per round without holding the pool hostage between rotations.
const QuantumSlices = 2

// NewScheduler starts a pool of workers time-slicing by budget entries
// (0 picks defaults: 2x GOMAXPROCS workers, DefaultSliceBudget).
func NewScheduler(workers, budget int) *Scheduler {
	if workers <= 0 {
		workers = 2 * runtime.GOMAXPROCS(0)
	}
	if budget <= 0 {
		budget = DefaultSliceBudget
	}
	s := &Scheduler{
		budget:  budget,
		quantum: int64(QuantumSlices * budget),
		workers: workers,
		tenants: make(map[string]*tenantQueue),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.worker()
		}()
	}
	return s
}

// Workers reports the pool size.
func (s *Scheduler) Workers() int { return s.workers }

// Register adds a session to the scheduler under a tenant (empty means
// the default tenant); tasks sharing a tenant share that tenant's DRR
// queue and credit. The task starts idle; the first Wake makes it
// runnable. appended must report the log's append high-water mark; onFed
// (optional) observes per-slice consumption.
func (s *Scheduler) Register(tenant string, cur wal.Reader, engine Engine, appended func() int64, onFed func(n int)) *Task {
	s.mu.Lock()
	q := s.tenants[tenant]
	if q == nil {
		q = &tenantQueue{name: tenant}
		s.tenants[tenant] = q
	}
	s.mu.Unlock()
	t := &Task{
		s:        s,
		tq:       q,
		cur:      cur,
		engine:   engine,
		appended: appended,
		onFed:    onFed,
		done:     make(chan []core.ModuleReport, 1),
	}
	s.tasks.Add(1)
	return t
}

// Wake marks the task runnable after an append (or close). It is safe
// from any goroutine and idempotent: a queued or about-to-requeue task
// is left alone, an idle task is enqueued, a running task is flagged so
// its worker re-checks before idling.
func (t *Task) Wake() {
	for {
		switch t.state.Load() {
		case taskQueued, taskRunWake, taskDone:
			return
		case taskIdle:
			if t.state.CompareAndSwap(taskIdle, taskQueued) {
				t.s.push(t)
				return
			}
		case taskRunning:
			if t.state.CompareAndSwap(taskRunning, taskRunWake) {
				return
			}
		}
	}
}

// Close tells the task its log has been closed with total entries
// appended; once the reader reaches that position the worker finishes
// the engine and publishes the reports. Call after the log's Close.
func (t *Task) Close(total int64) {
	t.closeTotal.Store(total)
	t.closing.Store(true)
	t.Wake()
}

// Wait blocks until the task has drained its closed log and returns the
// engine's reports. Idempotent.
func (t *Task) Wait() []core.ModuleReport {
	reports := <-t.done
	t.done <- reports // re-arm for idempotent waits
	return reports
}

// Fed reports how many entries this task's engine has consumed.
func (t *Task) Fed() int64 { return t.fed.Load() }

// push appends a task to its tenant's run queue, activating the tenant
// in the DRR ring if it was drained. A tenant re-activating with credit
// left re-enters at the front of the ring: its queue emptied mid-round
// (typically the one task a worker is re-queueing right now), so it
// resumes the interrupted visit instead of waiting out a full rotation —
// without this, a one-session tenant could spend at most one slice per
// round no matter its quantum.
func (s *Scheduler) push(t *Task) {
	s.mu.Lock()
	q := t.tq
	q.tasks = append(q.tasks, t)
	if !q.active {
		q.active = true
		if q.credit > 0 {
			s.ring = append(s.ring, nil)
			copy(s.ring[1:], s.ring)
			s.ring[0] = q
		} else {
			s.ring = append(s.ring, q)
		}
	}
	s.mu.Unlock()
	s.cond.Signal()
}

// pop blocks for the next runnable task, picked deficit-round-robin
// across tenants; nil means the pool stopped. The head tenant of the
// ring is served while it has credit; a tenant out of credit is topped
// up by one quantum and rotated to the back, so every loop iteration
// either returns a task or strictly advances some tenant toward being
// servable.
func (s *Scheduler) pop() *Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.ring) > 0 {
			q := s.ring[0]
			if q.credit <= 0 {
				q.credit += s.quantum
				if len(s.ring) > 1 {
					copy(s.ring, s.ring[1:])
					s.ring[len(s.ring)-1] = q
				}
				continue
			}
			t := q.tasks[q.head]
			q.tasks[q.head] = nil
			q.head++
			if q.runnable() == 0 {
				// Queue drained: leave the ring. Credit is kept — the
				// popped task is usually mid-slice and about to requeue,
				// and charging decides whether the tenant truly went
				// idle (and forfeits the remainder) once the slice ran.
				q.tasks = q.tasks[:0]
				q.head = 0
				q.active = false
				s.ring = s.ring[1:]
			}
			return t
		}
		if s.stopped {
			return nil
		}
		s.cond.Wait()
	}
}

// charge debits a slice's actual consumption against the task's tenant
// after the slice ran and the task decided its next state (DRR with
// post-slice charging: the cost of a slice is only known once the reader
// has been drained). Even an empty slice costs one entry, so a tenant
// whose tasks spin without progress still drains its credit and rotates. A tenant that is out of
// the ring at charge time has gone idle — nothing requeued — and
// forfeits its leftover credit, so an idle tenant cannot bank service.
func (s *Scheduler) charge(q *tenantQueue, n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	q.credit -= int64(n)
	if !q.active {
		q.credit = 0
	}
	s.mu.Unlock()
}

func (s *Scheduler) worker() {
	for {
		t := s.pop()
		if t == nil {
			return
		}
		t.state.Store(taskRunning)
		s.busy.Add(1)
		s.runSlice(t)
		s.busy.Add(-1)
	}
}

// runSlice feeds the task up to the entry budget, then decides its next
// state: finish (closed log fully drained), requeue (entries pending),
// or idle (nothing pending — raced against Wake via the state CAS).
func (s *Scheduler) runSlice(t *Task) {
	s.slices.Add(1)
	n := 0
	// Charge after the state machine below settles the task's next state,
	// so a requeue has already re-activated the tenant and only a tenant
	// that truly went idle forfeits credit.
	defer func() { s.charge(t.tq, n) }()
	for n < s.budget {
		e, ok := t.cur.TryNext()
		if !ok {
			break
		}
		t.engine.Feed(e)
		n++
	}
	if n > 0 {
		t.fed.Add(int64(n))
		s.entries.Add(int64(n))
		if t.onFed != nil {
			t.onFed(n)
		}
	}
	for {
		pos := int64(t.cur.Pos())
		if t.closing.Load() && pos >= t.closeTotal.Load() {
			// Closed and drained: finish exactly once (the task runs on
			// at most one worker, and taskDone stops future wakes).
			t.state.Store(taskDone)
			reports := t.engine.Finish()
			s.tasks.Add(-1)
			s.finished.Add(1)
			t.done <- reports
			return
		}
		if t.appended()-pos > 0 {
			// Entries pending — stay runnable. Yield when the slice made
			// no progress so the task does not monopolize its worker.
			t.state.Store(taskQueued)
			s.push(t)
			if n == 0 {
				runtime.Gosched()
			}
			return
		}
		// Nothing pending: transition to idle unless a wake raced in
		// after the pending check (CAS fails, state is taskRunWake).
		if t.state.CompareAndSwap(taskRunning, taskIdle) {
			return
		}
		t.state.Store(taskRunning)
	}
}

// Stats snapshots the pool gauges.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	runnable := 0
	for _, q := range s.ring {
		runnable += q.runnable()
	}
	active := len(s.ring)
	s.mu.Unlock()
	return SchedStats{
		Workers:       s.workers,
		Busy:          s.busy.Load(),
		Runnable:      runnable,
		TenantsActive: active,
		Tasks:         s.tasks.Load(),
		Slices:        s.slices.Load(),
		EntriesFed:    s.entries.Load(),
		Finished:      s.finished.Load(),
	}
}

// Stop shuts the pool down after every registered task has finished
// (the server force-finishes sessions before calling it). Idempotent.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}
