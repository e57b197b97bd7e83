package remote

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/fleet"
	"repro/internal/wal"
)

// ServerOptions tunes a verification server.
type ServerOptions struct {
	// Registry resolves handshake spec names; required.
	Registry *Registry
	// Window bounds each session's server-side log: the ingest loop blocks
	// once it is Window entries ahead of the session's checker, so a slow
	// checker backpressures through TCP to the client instead of buffering
	// the whole execution. 0 means DefaultWindow.
	Window int
	// SegmentSize is the per-session log segment size (0 = wal default).
	SegmentSize int
	// AckEvery is the ack cadence in entries (0 = DefaultAckEvery). The
	// effective cadence per session never exceeds a quarter of the client's
	// advertised window, so a small-window client is never starved of acks.
	AckEvery int
	// DrainTimeout bounds Shutdown when its context has no earlier
	// deadline (0 = DefaultDrainTimeout).
	DrainTimeout time.Duration
	// Workers is the size of the fleet.Scheduler pool every session's
	// checker runs on: sessions are tasks, ingest wakes them, and a
	// bounded worker set time-slices the runnable ones, so thousands of
	// mostly-idle sessions cost zero goroutines. <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// SliceBudget is the scheduler's per-slice entry budget
	// (0 = fleet.DefaultSliceBudget).
	SliceBudget int
	// Quotas is the per-tenant admission/fairness policy (zero values
	// mean unlimited). Sessions are accounted under Hello.Tenant.
	Quotas fleet.Quotas
	// Cluster is the static membership list of a routed vyrdd fleet;
	// Self is this node's own address in it. When set, a Hello whose Key
	// hashes to another node is rejected with a redirect (unless it is a
	// failover or a resume), so every member plus every ring-aware
	// client agrees on placement without coordination.
	Cluster []string
	Self    string
	// Logf, when non-nil, receives one line per connection-level event.
	Logf func(format string, args ...any)
}

// Defaults for ServerOptions zero values.
const (
	DefaultWindow       = 1 << 16
	DefaultAckEvery     = 1024
	DefaultDrainTimeout = 10 * time.Second
)

// Server accepts log-shipping connections and runs one checker pipeline
// per session. Sessions survive connection drops (the client resumes with
// its session token) and are force-finished with a partial-prefix verdict
// if a drain deadline expires first.
type Server struct {
	opts ServerOptions

	// sched is the bounded checker pool; tenants tracks per-tenant
	// quotas; ring is the cluster placement function (nil when
	// unclustered).
	sched   *fleet.Scheduler
	tenants *fleet.TenantTable
	ring    *fleet.Ring

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	sessions  map[string]*session
	recent    []SessionMetrics // finished sessions, newest last, bounded
	nextID    int64
	draining  bool
	started   time.Time

	connWG sync.WaitGroup

	sessionsStarted  atomic.Int64
	sessionsFinished atomic.Int64
	entriesTotal     atomic.Int64
	violationsTotal  atomic.Int64
}

// recentCap bounds the finished-session metrics ring.
const recentCap = 32

// NewServer constructs a server over the given options.
func NewServer(opts ServerOptions) (*Server, error) {
	if opts.Registry == nil {
		return nil, fmt.Errorf("remote: ServerOptions.Registry is required")
	}
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	if opts.AckEvery <= 0 {
		opts.AckEvery = DefaultAckEvery
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = DefaultDrainTimeout
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		opts:      opts,
		tenants:   fleet.NewTenantTable(opts.Quotas),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		sessions:  make(map[string]*session),
		started:   time.Now(),
	}
	if len(opts.Cluster) > 0 {
		if opts.Self == "" {
			return nil, fmt.Errorf("remote: ServerOptions.Self is required with Cluster")
		}
		ring, err := fleet.NewRing(opts.Cluster, 0)
		if err != nil {
			return nil, err
		}
		if !ring.Contains(opts.Self) {
			return nil, fmt.Errorf("remote: Self %q is not in Cluster %v", opts.Self, opts.Cluster)
		}
		s.ring = ring
	}
	s.sched = fleet.NewScheduler(opts.Workers, opts.SliceBudget)
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Serve accepts connections on l until the listener closes (Shutdown
// closes every registered listener). It returns nil on a drain-initiated
// close and the accept error otherwise.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("remote: server is draining")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.isDraining() && errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.handle(conn)
		}()
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// session is one client log's checker pipeline on the server. Its log is a
// windowed wal pipeline: ingest appends, the session's scheduler task
// consumes through a cursor, and the window is the backpressure that bounds
// memory.
type session struct {
	id      string
	spec    string
	modular bool
	started time.Time

	// tenant is the admission record the session is charged against
	// (released exactly once when the session retires).
	tenant     *fleet.Tenant
	tenantName string

	log *wal.Log
	// cur is the checker pipeline's reader; its Pos is the consumption
	// mark that window-memory accounting subtracts from recv.
	cur wal.Reader
	// task is the session's scheduler handle; ingest wakes it after every
	// append.
	task *fleet.Task

	// recv is the highest contiguous client sequence number ingested; it
	// doubles as the resume point for reconnecting clients and the ack
	// value. bytesIn is the encoded size of everything appended, the
	// numerator of the retained-window byte estimate.
	recv     atomic.Int64
	bytesIn  atomic.Int64
	ackEvery int64
	// lastAck is atomic: a superseding connection can race the old one's
	// in-flight batch, so two ingestAndAck calls may overlap briefly. A
	// duplicate cumulative ack is harmless; a torn counter is not.
	lastAck atomic.Int64

	// ioMu serializes ingest batches against finishing (fin or drain
	// force-finish), so the log is never closed mid-append.
	ioMu     sync.Mutex
	finished bool
	reports  []core.ModuleReport

	// connMu guards the attached connection; at most one live connection
	// serves a session at a time.
	connMu sync.Mutex
	conn   net.Conn
	fw     *frameWriter
}

// attach claims the session for a connection, superseding any previous
// one. A client reconnecting after a drop routinely beats the server's
// discovery of the dead connection (its read is still blocked), so latest
// wins: the old connection is closed, its handler's read fails, and its
// deferred detach is a no-op because the session already points elsewhere.
func (ss *session) attach(conn net.Conn, fw *frameWriter) {
	ss.connMu.Lock()
	old := ss.conn
	ss.conn, ss.fw = conn, fw
	ss.connMu.Unlock()
	if old != nil && old != conn {
		old.Close()
	}
}

func (ss *session) detach(conn net.Conn) {
	ss.connMu.Lock()
	defer ss.connMu.Unlock()
	if ss.conn == conn {
		ss.conn, ss.fw = nil, nil
	}
}

// attached returns the live connection and writer, if any.
func (ss *session) attached() (net.Conn, *frameWriter) {
	ss.connMu.Lock()
	defer ss.connMu.Unlock()
	return ss.conn, ss.fw
}

// windowBytes estimates the session's retained window memory: entries
// ingested but not yet consumed by the checker, times the session's
// observed mean encoded entry size. Cheap (three atomic loads), safe
// from any goroutine, and what tenant window-memory quotas sum over.
func (ss *session) windowBytes() int64 {
	recv := ss.recv.Load()
	if recv <= 0 {
		return 0
	}
	retained := recv - int64(ss.cur.Pos())
	if retained <= 0 {
		return 0
	}
	return retained * (ss.bytesIn.Load() / recv)
}

// sessionEngine adapts the three session checker shapes (single
// checker, linearizer, modular fan-out) onto fleet.Engine for the
// scheduler. Exactly one of multi/checker is set.
type sessionEngine struct {
	multi   *core.Multi
	checker core.EntryChecker
	cur     wal.Reader
}

func (p *sessionEngine) Feed(e event.Entry) {
	if p.multi != nil {
		p.multi.FeedSync(e)
		return
	}
	p.checker.Feed(e)
}

func (p *sessionEngine) Finish() []core.ModuleReport {
	var logErr string
	if err := p.cur.Err(); err != nil {
		logErr = err.Error()
	}
	if p.multi != nil {
		return p.multi.FinishSync(logErr)
	}
	rep := p.checker.Finish()
	if logErr != "" && rep.LogErr == "" {
		rep.LogErr = logErr
	}
	return []core.ModuleReport{{Report: rep}}
}

// newSession builds a session for a validated handshake: a windowed log,
// the checker (or modular fan-out) over the named spec, and the scheduler
// task that runs it in cooperative slices on the shared worker pool.
func (s *Server) newSession(h Hello) (*session, error) {
	f, ok := s.opts.Registry.Lookup(h.Spec)
	if !ok {
		return nil, fmt.Errorf("unknown spec %q (registered: %v)", h.Spec, s.opts.Registry.Names())
	}

	// Admission: charge the tenant's session quota before building any
	// pipeline state; release on every failure path below.
	ten, err := s.tenants.Admit(h.Tenant)
	if err != nil {
		return nil, err
	}
	admitted := false
	defer func() {
		if !admitted {
			ten.Release()
		}
	}()

	// Resolve the checker shape first, so handshake errors (unknown
	// mode, modular-only spec) surface before a log exists.
	var (
		multi   *core.Multi
		checker core.EntryChecker
	)
	if h.Modular {
		if f.NewModules == nil {
			return nil, fmt.Errorf("spec %q has no modular decomposition", h.Spec)
		}
		multi, err = core.NewMulti(f.NewModules()...)
		if err != nil {
			return nil, err
		}
	} else if h.Mode == "linearize" {
		if f.NewLinearizer == nil {
			return nil, fmt.Errorf("spec %q does not support linearizability checking", h.Spec)
		}
		checker = f.NewLinearizer()
	} else if h.Mode == "ltl" {
		if f.NewTemporal == nil {
			return nil, fmt.Errorf("spec %q does not support temporal checking", h.Spec)
		}
		checker, err = f.NewTemporal(h.Props, h.FailFast)
		if err != nil {
			return nil, err
		}
	} else {
		if f.NewSpec == nil {
			return nil, fmt.Errorf("spec %q is modular-only", h.Spec)
		}
		var opts []core.Option
		switch h.Mode {
		case "", "view":
			if f.NewReplayer != nil {
				if r := f.NewReplayer(); r != nil {
					opts = append(opts, core.WithMode(core.ModeView), core.WithReplayer(r))
				} else if h.Mode == "view" {
					return nil, fmt.Errorf("spec %q does not support view refinement", h.Spec)
				}
			} else if h.Mode == "view" {
				return nil, fmt.Errorf("spec %q does not support view refinement", h.Spec)
			}
		case "io":
			opts = append(opts, core.WithMode(core.ModeIO))
		default:
			return nil, fmt.Errorf("unknown mode %q (io, view, linearize or ltl)", h.Mode)
		}
		opts = append(opts, core.WithFailFast(h.FailFast))
		checker, err = core.New(f.NewSpec(), opts...)
		if err != nil {
			return nil, err
		}
	}

	lg := wal.NewWithOptions(wal.LevelView, wal.Options{
		Window:      s.opts.Window,
		SegmentSize: s.opts.SegmentSize,
	})
	cur := lg.Reader()

	ss := &session{
		spec:       h.Spec,
		modular:    h.Modular,
		started:    time.Now(),
		tenant:     ten,
		tenantName: ten.Name(),
		log:        lg,
		cur:        cur,
		ackEvery:   int64(s.opts.AckEvery),
	}

	// The reader is only ever touched by the worker holding the task.
	engine := &sessionEngine{multi: multi, checker: checker, cur: cur}
	ss.task = s.sched.Register(ss.tenantName, cur, engine, ss.recv.Load, nil)

	if h.Window > 0 && int64(h.Window/4) < ss.ackEvery {
		ss.ackEvery = int64(h.Window / 4)
	}
	if ss.ackEvery < 1 {
		ss.ackEvery = 1
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		lg.Close()
		ss.task.Close(0)
		ss.task.Wait()
		return nil, fmt.Errorf("server is draining")
	}
	s.nextID++
	ss.id = fmt.Sprintf("s%d", s.nextID)
	s.sessions[ss.id] = ss
	s.mu.Unlock()
	admitted = true
	s.sessionsStarted.Add(1)
	return ss, nil
}

// ingest appends one Entries frame's records to the session log. Entries
// at or below the resume point are duplicates from a retransmitting client
// and are discarded; a gap above it means the client and server disagree
// about the stream position, which is fatal for the connection (the
// session survives for a clean resume).
func (ss *session) ingest(payload []byte) (int64, error) {
	ss.ioMu.Lock()
	defer ss.ioMu.Unlock()
	if ss.finished {
		return 0, nil // drain already decided the verdict; discard
	}
	var n int64
	for len(payload) > 0 {
		frameLen := len(payload)
		e, rest, err := event.DecodeEntryFrame(payload)
		if err != nil {
			return n, fmt.Errorf("remote: decode entry frame: %w", err)
		}
		payload = rest
		frameLen -= len(rest)
		recv := ss.recv.Load()
		if e.Seq <= recv {
			continue
		}
		if e.Seq != recv+1 {
			return n, fmt.Errorf("remote: sequence gap: got #%d, expected #%d", e.Seq, recv+1)
		}
		ss.log.Append(e)
		ss.recv.Store(e.Seq)
		ss.bytesIn.Add(int64(frameLen))
		// Wake after every append, not per batch: if the next Append
		// parks on a full window, the entries already published must
		// each have had their wake, or an idle task would never drain
		// them and the ingest loop would wedge.
		ss.task.Wake()
		n++
	}
	return n, nil
}

// finish closes the session's log, joins the checker pipeline and caches
// the reports. Idempotent; safe to race between the fin path and a drain
// force-finish.
func (ss *session) finish() []core.ModuleReport {
	ss.ioMu.Lock()
	defer ss.ioMu.Unlock()
	if !ss.finished {
		ss.finished = true
		ss.log.Close()
		// Tell the scheduler where the stream ends; a worker drains the
		// tail and finishes the engine.
		ss.task.Close(ss.recv.Load())
		ss.reports = ss.task.Wait()
	}
	return ss.reports
}

// handle serves one connection: preamble, handshake, then the ingest loop.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	br := bufio.NewReaderSize(conn, 1<<16)
	fw := newFrameWriter(conn)
	if err := readPreamble(br); err != nil {
		s.logf("remote: %s: %v", conn.RemoteAddr(), err)
		return
	}
	typ, payload, err := readFrame(br)
	if err != nil || typ != frameHello {
		s.logf("remote: %s: expected hello, got frame %d (%v)", conn.RemoteAddr(), typ, err)
		return
	}
	var h Hello
	if err := json.Unmarshal(payload, &h); err != nil {
		fw.writeJSON(frameReject, Reject{Error: fmt.Sprintf("malformed hello: %v", err)})
		return
	}
	if h.FormatVersion != event.FormatVersion {
		msg := fmt.Sprintf("log format version mismatch: client ships format version %d, this server reads version %d",
			h.FormatVersion, event.FormatVersion)
		s.logf("remote: %s: %s", conn.RemoteAddr(), msg)
		fw.writeJSON(frameReject, Reject{Error: msg})
		return
	}
	if rej := s.routeReject(h); rej != nil {
		s.logf("remote: %s: key %q redirected to %s", conn.RemoteAddr(), h.Key, rej.RedirectTo)
		fw.writeJSON(frameReject, rej)
		return
	}

	var ss *session
	if h.Session != "" {
		s.mu.Lock()
		ss = s.sessions[h.Session]
		s.mu.Unlock()
		if ss == nil {
			fw.writeJSON(frameReject, Reject{Error: fmt.Sprintf("unknown session %q (finished, drained, or never started)", h.Session)})
			return
		}
	} else {
		var err error
		ss, err = s.newSession(h)
		if err != nil {
			rej := Reject{Error: err.Error()}
			var qe *fleet.QuotaError
			if errors.As(err, &qe) {
				rej.Reason = RejectQuota
			}
			fw.writeJSON(frameReject, rej)
			return
		}
	}
	ss.attach(conn, fw)
	defer ss.detach(conn)
	if err := fw.writeJSON(frameWelcome, Welcome{Session: ss.id, ResumeFrom: ss.recv.Load()}); err != nil {
		return
	}
	s.logf("remote: %s: session %s spec=%q resume_from=%d", conn.RemoteAddr(), ss.id, ss.spec, ss.recv.Load())

	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			// Connection drop mid-session: keep the session for resume.
			s.logf("remote: %s: session %s connection lost: %v", conn.RemoteAddr(), ss.id, err)
			return
		}
		switch typ {
		case frameEntries:
			n, err := s.ingestAndAck(ss, payload)
			if err != nil {
				s.logf("remote: %s: session %s: %v", conn.RemoteAddr(), ss.id, err)
				return
			}
			_ = n
		case frameFin:
			s.finishSession(ss, fw, false)
			return
		default:
			s.logf("remote: %s: session %s: unexpected frame %d", conn.RemoteAddr(), ss.id, typ)
			return
		}
	}
}

// ingestAndAck appends a batch and acks at the session's cadence,
// enforcing the tenant's rate and window-memory quotas as ingest pauses
// — delayed acks fill the client's resend window and stall its producer
// through the wal sink, the same backpressure chain a slow checker
// exerts, so a throttled tenant slows down instead of disconnecting.
func (s *Server) ingestAndAck(ss *session, payload []byte) (int64, error) {
	s.windowWait(ss)
	n, err := ss.ingest(payload)
	s.entriesTotal.Add(n)
	if err != nil {
		return n, err
	}
	if pause := ss.tenant.RatePause(int(n)); pause > 0 {
		// Cap one batch's pause so the connection stays responsive; the
		// unpaid debt carries over in the token bucket.
		if pause > time.Second {
			pause = time.Second
		}
		time.Sleep(pause)
	}
	if recv := ss.recv.Load(); recv-ss.lastAck.Load() >= ss.ackEvery {
		_, fw := ss.attached()
		if fw != nil {
			if err := fw.writeAck(recv); err != nil {
				return n, err
			}
		}
		ss.lastAck.Store(recv)
	}
	return n, nil
}

// windowWait pauses ingest while the session's tenant is over its
// aggregate window-memory budget, until the checker pool has consumed
// enough of the tenant's retained entries (or the server drains).
func (s *Server) windowWait(ss *session) {
	max := s.opts.Quotas.MaxWindowBytes
	if max <= 0 {
		return
	}
	for i := 0; ; i++ {
		if s.tenantWindowBytes(ss.tenantName) <= max {
			return
		}
		if i == 0 {
			ss.tenant.NoteThrottle()
		}
		if s.isDraining() {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// tenantWindowBytes sums the retained window memory of every live
// session charged to the tenant.
func (s *Server) tenantWindowBytes(tenant string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum int64
	for _, ss := range s.sessions {
		if ss.tenantName == tenant {
			sum += ss.windowBytes()
		}
	}
	return sum
}

// finishSession completes a session (fin path or drain force-finish),
// sends the verdict on the session's live connection if there is one, and
// retires the session into the finished-metrics ring.
func (s *Server) finishSession(ss *session, fw *frameWriter, drained bool) {
	reports := ss.finish()
	verdict := Verdict{Reports: reports, Drained: drained}
	var violations int64
	for _, mr := range reports {
		violations += mr.Report.TotalViolations
	}

	s.mu.Lock()
	_, live := s.sessions[ss.id]
	if live {
		delete(s.sessions, ss.id)
		m := s.sessionMetricsLocked(ss)
		m.Reports = verdictSummaries(reports)
		m.Connected = false
		s.recent = append(s.recent, m)
		if len(s.recent) > recentCap {
			s.recent = s.recent[len(s.recent)-recentCap:]
		}
	}
	s.mu.Unlock()
	if live {
		s.sessionsFinished.Add(1)
		s.violationsTotal.Add(violations)
		ss.tenant.Release()
	}

	if fw == nil {
		_, fw = ss.attached()
	}
	if fw != nil {
		if err := fw.writeAck(ss.recv.Load()); err == nil {
			fw.writeJSON(frameVerdict, &verdict)
		}
	}
	s.logf("remote: session %s finished: ok=%v violations=%d entries=%d drained=%v",
		ss.id, verdict.Ok(), violations, ss.recv.Load(), drained)
}

// routeReject decides whether a Hello belongs on another cluster node:
// a keyed, non-failover, non-resume handshake whose ring owner is not
// this node gets a redirect. Failovers are honored anywhere (the client
// walked its preference list past a dead primary), resumes are local by
// construction (the session lives here), and keyless sessions are
// served wherever they land.
func (s *Server) routeReject(h Hello) *Reject {
	if s.ring == nil || h.Key == "" || h.Failover || h.Session != "" {
		return nil
	}
	owner := s.ring.Owner(h.Key)
	if owner == s.opts.Self {
		return nil
	}
	return &Reject{
		Reason:     RejectRedirect,
		RedirectTo: owner,
		Error:      fmt.Sprintf("session key %q is owned by cluster node %s", h.Key, owner),
	}
}

// Shutdown drains the server: listeners close (no new sessions), in-flight
// sessions get until the context deadline (or DrainTimeout) to deliver
// their fin and receive a normal verdict, and whatever is still live at
// the deadline is force-finished — its checker runs to the end of the
// ingested prefix and the verdict (marked Drained) is pushed to the
// client's live connection. Shutdown returns once every connection handler
// has exited.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ls := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		ls = append(ls, l)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}

	deadline := time.Now().Add(s.opts.DrainTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for time.Now().Before(deadline) {
		s.mu.Lock()
		n := len(s.sessions)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		select {
		case <-ctx.Done():
			deadline = time.Now()
		case <-time.After(2 * time.Millisecond):
		}
	}

	// Force-finish the stragglers: verdicts over the ingested prefix.
	s.mu.Lock()
	remaining := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		remaining = append(remaining, ss)
	}
	s.mu.Unlock()
	for _, ss := range remaining {
		s.finishSession(ss, nil, true)
		if conn, _ := ss.attached(); conn != nil {
			conn.Close()
		}
	}

	// Unstick any connection that never completed a handshake.
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()

	s.connWG.Wait()
	// Every session is finished by now, so the pool's queue is dry.
	s.sched.Stop()
	return ctx.Err()
}

// Health is the /healthz body.
type Health struct {
	Ok             bool    `json:"ok"`
	Draining       bool    `json:"draining,omitempty"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	ActiveSessions int     `json:"active_sessions"`
	Specs          int     `json:"specs"`
}

// Health reports liveness for the ops surface.
func (s *Server) Health() Health {
	s.mu.Lock()
	active := len(s.sessions)
	draining := s.draining
	s.mu.Unlock()
	return Health{
		Ok:             !draining,
		Draining:       draining,
		UptimeSeconds:  time.Since(s.started).Seconds(),
		ActiveSessions: active,
		Specs:          len(s.opts.Registry.Names()),
	}
}

// SessionMetrics is the per-session slice of /metrics.
type SessionMetrics struct {
	ID            string  `json:"id"`
	Spec          string  `json:"spec"`
	Tenant        string  `json:"tenant,omitempty"`
	Modular       bool    `json:"modular,omitempty"`
	Connected     bool    `json:"connected"`
	Entries       int64   `json:"entries"`
	EntriesPerSec float64 `json:"entries_per_sec"`
	VerifierLag   int64   `json:"verifier_lag"`
	// WindowBytes estimates the session's retained window memory:
	// ingested-but-unchecked entries times the mean encoded entry size.
	WindowBytes int64           `json:"window_bytes"`
	Log         wal.Stats       `json:"log"`
	Reports     []SessionReport `json:"reports,omitempty"`
}

// SessionReport pairs a module name with its report summary — the shared
// core.Summary serialization.
type SessionReport struct {
	Module string       `json:"module,omitempty"`
	Report core.Summary `json:"report"`
}

// Metrics is the /metrics body.
type Metrics struct {
	UptimeSeconds    float64 `json:"uptime_seconds"`
	SessionsActive   int     `json:"sessions_active"`
	SessionsStarted  int64   `json:"sessions_started"`
	SessionsFinished int64   `json:"sessions_finished"`
	EntriesTotal     int64   `json:"entries_total"`
	ViolationsTotal  int64   `json:"violations_total"`
	// Sched is the checker pool snapshot.
	Sched *fleet.SchedStats `json:"sched,omitempty"`
	// Tenants lists per-tenant admission/throttle counters with their
	// live retained-window bytes overlaid.
	Tenants  []fleet.TenantMetrics `json:"tenants,omitempty"`
	Sessions []SessionMetrics      `json:"sessions"`
	Finished []SessionMetrics      `json:"finished,omitempty"`
}

// sessionMetricsLocked snapshots one session; the caller holds s.mu.
func (s *Server) sessionMetricsLocked(ss *session) SessionMetrics {
	stats := ss.log.Stats()
	elapsed := time.Since(ss.started).Seconds()
	eps := 0.0
	if elapsed > 0 {
		eps = float64(ss.recv.Load()) / elapsed
	}
	conn, _ := ss.attached()
	return SessionMetrics{
		ID:            ss.id,
		Spec:          ss.spec,
		Tenant:        ss.tenantName,
		Modular:       ss.modular,
		Connected:     conn != nil,
		Entries:       ss.recv.Load(),
		EntriesPerSec: eps,
		VerifierLag:   stats.MaxVerifierLag,
		WindowBytes:   ss.windowBytes(),
		Log:           stats,
	}
}

func verdictSummaries(reports []core.ModuleReport) []SessionReport {
	out := make([]SessionReport, len(reports))
	for i, mr := range reports {
		out[i] = SessionReport{Module: mr.Module, Report: mr.Report.Summary()}
	}
	return out
}

// Metrics snapshots the server's counters and per-session pipelines for
// the ops surface.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	m := Metrics{
		UptimeSeconds:    time.Since(s.started).Seconds(),
		SessionsActive:   len(s.sessions),
		SessionsStarted:  s.sessionsStarted.Load(),
		SessionsFinished: s.sessionsFinished.Load(),
		EntriesTotal:     s.entriesTotal.Load(),
		ViolationsTotal:  s.violationsTotal.Load(),
	}
	windowByTenant := make(map[string]int64)
	for _, ss := range s.sessions {
		sm := s.sessionMetricsLocked(ss)
		windowByTenant[ss.tenantName] += sm.WindowBytes
		m.Sessions = append(m.Sessions, sm)
	}
	m.Finished = append(m.Finished, s.recent...)
	s.mu.Unlock()
	st := s.sched.Stats()
	m.Sched = &st
	m.Tenants = s.tenants.Snapshot()
	for i := range m.Tenants {
		m.Tenants[i].WindowBytes = windowByTenant[m.Tenants[i].Tenant]
	}
	sortSessionMetrics(m.Sessions)
	return m
}

// sortSessionMetrics orders sessions by id for stable output.
func sortSessionMetrics(ms []SessionMetrics) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j-1].ID > ms[j].ID; j-- {
			ms[j-1], ms[j] = ms[j], ms[j-1]
		}
	}
}
