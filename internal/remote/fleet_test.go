// Fleet-tier tests: tenant quotas enforced as backpressure, consistent-
// hash routing with client-side redirect, kill-one-node failover onto the
// journal-replay path, and the session-supersede attach race.
package remote_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/fleet"
	"repro/internal/fleet/failover"
	"repro/internal/remote"
)

// TestTenantSessionQuota pins admission control: a tenant at its
// MaxSessions cap gets an explicit tenant-quota reject (not a hang, not a
// protocol error), other tenants are unaffected, and finishing a session
// frees the slot.
func TestTenantSessionQuota(t *testing.T) {
	srv, addr := startServer(t, remote.ServerOptions{
		Quotas: fleet.Quotas{MaxSessions: 1},
	})

	trace := multisetTrace(10, false)
	cl1, err := remote.NewClient(remote.ClientOptions{
		Addr:  addr,
		Hello: remote.Hello{Spec: "multiset", Mode: "io", Tenant: "acme"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl1.WriteEntry(trace[0]); err != nil {
		t.Fatal(err)
	}
	waitSession(t, cl1)

	// Same tenant, second concurrent session: rejected by quota, and the
	// reject names the machine-readable reason so clients can route.
	cl2, err := remote.NewClient(remote.ClientOptions{
		Addr:  addr,
		Hello: remote.Hello{Spec: "multiset", Mode: "io", Tenant: "acme"},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = cl2.Flush()
	if err == nil {
		t.Fatal("second session admitted past MaxSessions=1")
	}
	rej, ok := remote.HandshakeReject(err)
	if !ok || rej.Reason != remote.RejectQuota {
		t.Fatalf("want reject reason %q, got %v", remote.RejectQuota, err)
	}

	// A different tenant has its own cap.
	cl3, err := remote.NewClient(remote.ClientOptions{
		Addr:  addr,
		Hello: remote.Hello{Spec: "multiset", Mode: "io", Tenant: "other"},
	})
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, cl3, trace)
	if v := cl3.Verdict(); v == nil || !v.Ok() {
		t.Fatalf("other tenant's verdict: %v", v)
	}

	// Finishing acme's live session frees the slot.
	shipAll(t, cl1, trace[1:])
	if v := cl1.Verdict(); v == nil || !v.Ok() {
		t.Fatalf("first session verdict: %v", v)
	}
	cl4, err := remote.NewClient(remote.ClientOptions{
		Addr:  addr,
		Hello: remote.Hello{Spec: "multiset", Mode: "io", Tenant: "acme"},
	})
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, cl4, trace)
	if v := cl4.Verdict(); v == nil || !v.Ok() {
		t.Fatalf("post-release verdict: %v", v)
	}

	var acme *fleet.TenantMetrics
	for _, tm := range srv.Metrics().Tenants {
		if tm.Tenant == "acme" {
			tm := tm
			acme = &tm
		}
	}
	if acme == nil || acme.Rejected != 1 || acme.SessionsTotal != 2 {
		t.Fatalf("acme tenant metrics: %+v", acme)
	}
}

// TestTenantRateQuotaThrottles pins the entries/sec quota: a tenant
// streaming far above its rate is slowed by delayed acks — the session
// survives, the verdict is byte-identical to the unthrottled run, and the
// throttle counter records the enforcement.
func TestTenantRateQuotaThrottles(t *testing.T) {
	srv, addr := startServer(t, remote.ServerOptions{
		Quotas:   fleet.Quotas{MaxEntriesPerSec: 3000},
		AckEvery: 16,
	})
	trace := multisetTrace(1500, false) // 4500 entries, ~1.5x the 1s burst
	want := localSummary(t, trace)

	cl, err := remote.NewClient(remote.ClientOptions{
		Addr:  addr,
		Hello: remote.Hello{Spec: "multiset", Mode: "io", Tenant: "throttled"},
	})
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, cl, trace)
	v := cl.Verdict()
	if v == nil || len(v.Reports) != 1 {
		t.Fatalf("verdict: %v", v)
	}
	if got := v.Reports[0].Report.Summary(); got != want {
		t.Fatalf("throttled verdict diverged:\ngot:  %+v\nwant: %+v", got, want)
	}

	throttled := false
	for _, tm := range srv.Metrics().Tenants {
		if tm.Tenant == "throttled" && tm.ThrottleWaits > 0 {
			throttled = true
		}
	}
	if !throttled {
		t.Fatal("rate quota never engaged (ThrottleWaits == 0)")
	}
}

// TestTenantWindowQuotaThrottles pins the window-memory quota: with a
// deliberately slow checker the tenant's retained window grows past its
// byte budget and ingest pauses until the checker catches up — verdict
// unchanged, throttle counted, and the per-session window accounting that
// the quota sums over is visible in the metrics.
func TestTenantWindowQuotaThrottles(t *testing.T) {
	srv, addr := startServer(t, remote.ServerOptions{
		Registry: testRegistry(200 * time.Microsecond),
		Quotas:   fleet.Quotas{MaxWindowBytes: 4 << 10},
		AckEvery: 8,
	})
	trace := multisetTrace(400, false)
	want := localSummary(t, trace)

	cl, err := remote.NewClient(remote.ClientOptions{
		Addr:  addr,
		Hello: remote.Hello{Spec: "multiset-slow", Mode: "io", Tenant: "memhog"},
	})
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, cl, trace)
	v := cl.Verdict()
	if v == nil || len(v.Reports) != 1 {
		t.Fatalf("verdict: %v", v)
	}
	got := v.Reports[0].Report.Summary()
	// The slow spec only changes timing; its verdict fields must match
	// the plain multiset run.
	got.Mode = want.Mode
	if got != want {
		t.Fatalf("window-throttled verdict diverged:\ngot:  %+v\nwant: %+v", got, want)
	}
	throttled := false
	for _, tm := range srv.Metrics().Tenants {
		if tm.Tenant == "memhog" && tm.ThrottleWaits > 0 {
			throttled = true
		}
	}
	if !throttled {
		t.Fatal("window quota never engaged (ThrottleWaits == 0)")
	}
}

// startCluster brings up n routed vyrdd nodes whose Cluster list carries
// the real loopback addresses (listeners first, servers second).
func startCluster(tb testing.TB, n int) ([]*remote.Server, []string, []net.Listener) {
	tb.Helper()
	lns := make([]net.Listener, n)
	nodes := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		lns[i] = ln
		nodes[i] = ln.Addr().String()
	}
	srvs := make([]*remote.Server, n)
	for i := range srvs {
		srv, err := remote.NewServer(remote.ServerOptions{
			Registry: testRegistry(0),
			Cluster:  nodes,
			Self:     nodes[i],
			// The failover test abandons a session on the killed primary;
			// don't let its cleanup drain wait the default deadline for a
			// Fin that will never come.
			DrainTimeout: 200 * time.Millisecond,
		})
		if err != nil {
			tb.Fatal(err)
		}
		go srv.Serve(lns[i])
		srvs[i] = srv
	}
	tb.Cleanup(func() {
		for _, srv := range srvs {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			srv.Shutdown(ctx)
			cancel()
		}
	})
	return srvs, nodes, lns
}

// keyOwnedBy finds a session key the cluster ring assigns to the given
// node.
func keyOwnedBy(tb testing.TB, nodes []string, owner string) string {
	tb.Helper()
	ring, err := fleet.NewRing(nodes, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if ring.Owner(key) == owner {
			return key
		}
	}
	tb.Fatalf("no key owned by %s in 10000 tries", owner)
	return ""
}

// TestClusterRedirect pins client-side routing: a keyed session dialed at
// the wrong node gets a redirect reject naming the owner, the client
// follows it transparently, and the session runs (and finishes) on the
// owner only.
func TestClusterRedirect(t *testing.T) {
	srvs, nodes, _ := startCluster(t, 2)
	key := keyOwnedBy(t, nodes, nodes[1]) // owned by node 1, dialed at node 0

	trace := multisetTrace(30, false)
	want := localSummary(t, trace)
	cl, err := remote.NewClient(remote.ClientOptions{
		Addr:  nodes[0],
		Hello: remote.Hello{Spec: "multiset", Mode: "io", Key: key},
	})
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, cl, trace)
	v := cl.Verdict()
	if v == nil || len(v.Reports) != 1 {
		t.Fatalf("verdict: %v", v)
	}
	if got := v.Reports[0].Report.Summary(); got != want {
		t.Fatalf("routed verdict diverged:\ngot:  %+v\nwant: %+v", got, want)
	}
	if fin := srvs[1].Metrics().SessionsFinished; fin != 1 {
		t.Fatalf("owner finished %d sessions, want 1", fin)
	}
	if fin := srvs[0].Metrics().SessionsFinished; fin != 0 {
		t.Fatalf("non-owner finished %d sessions, want 0 (redirect should not serve)", fin)
	}
}

// connCutter wraps the dialer, tracking live connections per node so the
// test can simulate a box death: cut every connection to one address and
// close its listener, from the client's point of view exactly a dead node.
type connCutter struct {
	mu    sync.Mutex
	conns map[string][]net.Conn
	dead  map[string]bool
}

func newConnCutter() *connCutter {
	return &connCutter{conns: map[string][]net.Conn{}, dead: map[string]bool{}}
}

func (cc *connCutter) dial(addr string) (net.Conn, error) {
	cc.mu.Lock()
	if cc.dead[addr] {
		cc.mu.Unlock()
		return nil, fmt.Errorf("connCutter: %s is dead", addr)
	}
	cc.mu.Unlock()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	cc.conns[addr] = append(cc.conns[addr], conn)
	cc.mu.Unlock()
	return conn, nil
}

func (cc *connCutter) kill(addr string) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.dead[addr] = true
	for _, conn := range cc.conns[addr] {
		conn.Close()
	}
	cc.conns[addr] = nil
}

// TestClusterFailover kills the owning node mid-stream (ISSUE 8
// acceptance): the failover runner walks its preference list to the
// survivor, replays its journal into a fresh session (Failover bypasses
// the ownership check), and the final verdict — violation included — is
// identical to an uninterrupted run.
func TestClusterFailover(t *testing.T) {
	_, nodes, _ := startCluster(t, 2)
	key := keyOwnedBy(t, nodes, nodes[0]) // primary is node 0, survivor node 1

	trace := multisetTrace(40, true) // planted observer violation
	want := localSummary(t, trace)
	if want.TotalViolations == 0 {
		t.Fatal("reference trace lost its violation")
	}

	cc := newConnCutter()
	r, err := failover.New(failover.Options{
		Nodes: nodes,
		Key:   key,
		Client: remote.ClientOptions{
			Hello:        remote.Hello{Spec: "multiset", Mode: "io"},
			BatchEntries: 4,
			MaxAttempts:  2,
			BackoffBase:  time.Millisecond,
			Dial:         cc.dial,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Node() != nodes[0] {
		t.Fatalf("runner primary %s, want ring owner %s", r.Node(), nodes[0])
	}

	half := len(trace) / 2
	for _, e := range trace[:half] {
		if err := r.WriteEntry(e); err != nil {
			t.Fatalf("WriteEntry #%d: %v", e.Seq, err)
		}
	}
	// Let some of the first half actually reach the primary, then kill it.
	deadline := time.Now().Add(5 * time.Second)
	for r.Client().Session() == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if r.Client().Session() == "" {
		t.Fatal("session never established on the primary")
	}
	cc.kill(nodes[0])

	for _, e := range trace[half:] {
		if err := r.WriteEntry(e); err != nil {
			t.Fatalf("WriteEntry #%d after kill: %v", e.Seq, err)
		}
	}
	v, err := r.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if r.Failovers() == 0 || r.Node() != nodes[1] {
		t.Fatalf("runner never failed over: failovers=%d node=%s", r.Failovers(), r.Node())
	}
	if v == nil || len(v.Reports) != 1 {
		t.Fatalf("verdict: %v", v)
	}
	if got := v.Reports[0].Report.Summary(); got != want {
		t.Fatalf("failover verdict diverged from uninterrupted reference:\ngot:  %+v\nwant: %+v", got, want)
	}
}

// rawSession speaks the wire protocol by hand: preamble, Hello, Welcome.
type rawSession struct {
	conn net.Conn
	br   *bufio.Reader
}

func rawDial(addr string, h remote.Hello) (*rawSession, remote.Welcome, error) {
	h.FormatVersion = event.FormatVersion
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, remote.Welcome{}, err
	}
	rs := &rawSession{conn: conn, br: bufio.NewReader(conn)}
	if _, err := conn.Write([]byte("VYRDRPC\x01")); err != nil {
		conn.Close()
		return nil, remote.Welcome{}, err
	}
	hello, _ := json.Marshal(h)
	if err := rs.writeFrame(1, hello); err != nil { // frameHello
		conn.Close()
		return nil, remote.Welcome{}, err
	}
	typ, payload, err := rs.readFrame()
	if err != nil {
		conn.Close()
		return nil, remote.Welcome{}, err
	}
	if typ != 10 { // frameWelcome
		conn.Close()
		return nil, remote.Welcome{}, fmt.Errorf("frame %d (%s), want welcome", typ, payload)
	}
	var w remote.Welcome
	if err := json.Unmarshal(payload, &w); err != nil {
		conn.Close()
		return nil, remote.Welcome{}, err
	}
	return rs, w, nil
}

func (rs *rawSession) writeFrame(typ byte, payload []byte) error {
	frame := append([]byte{typ}, binary.AppendUvarint(nil, uint64(len(payload)))...)
	_, err := rs.conn.Write(append(frame, payload...))
	return err
}

func (rs *rawSession) writeEntries(entries []event.Entry) error {
	var payload []byte
	var err error
	for _, e := range entries {
		if payload, err = event.AppendEntryFrame(payload, e); err != nil {
			return err
		}
	}
	return rs.writeFrame(2, payload) // frameEntries
}

func (rs *rawSession) readFrame() (byte, []byte, error) {
	typ, err := rs.br.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	size, err := binary.ReadUvarint(rs.br)
	if err != nil {
		return 0, nil, err
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(rs.br, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// readVerdict consumes acks until the verdict frame (or an error).
func (rs *rawSession) readVerdict(timeout time.Duration) (*remote.Verdict, error) {
	rs.conn.SetReadDeadline(time.Now().Add(timeout))
	for {
		typ, payload, err := rs.readFrame()
		if err != nil {
			return nil, err
		}
		switch typ {
		case 12: // frameAck
			continue
		case 13: // frameVerdict
			var v remote.Verdict
			if err := json.Unmarshal(payload, &v); err != nil {
				return nil, err
			}
			return &v, nil
		default:
			return nil, fmt.Errorf("unexpected frame %d", typ)
		}
	}
}

// TestSessionSupersedeRace races two connections attaching the same
// session token while the stream is mid-flight: latest attach wins, the
// loser detaches cleanly (its connection closes; the session does not
// tear down), duplicate retransmission is absorbed by sequence numbers,
// and the verdict is exactly the single-connection verdict.
func TestSessionSupersedeRace(t *testing.T) {
	srv, addr := startServer(t, remote.ServerOptions{AckEvery: 4})
	trace := multisetTrace(40, true)
	want := localSummary(t, trace)
	half := len(trace) / 2

	// Open the session and stream the first half on the original
	// connection.
	first, w, err := rawDial(addr, remote.Hello{Spec: "multiset", Mode: "io"})
	if err != nil {
		t.Fatal(err)
	}
	defer first.conn.Close()
	if w.Session == "" {
		t.Fatal("no session token")
	}
	if err := first.writeEntries(trace[:half]); err != nil {
		t.Fatal(err)
	}

	// Two successors race to attach the token. Each that survives the
	// race ships the whole second half (duplicates are dropped by seq)
	// and sends Fin; at most one stays attached to read the verdict.
	type outcome struct {
		v   *remote.Verdict
		err error
	}
	results := make(chan outcome, 2)
	var ready sync.WaitGroup
	ready.Add(2)
	start := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func() {
			rs, _, err := rawDial(addr, remote.Hello{Spec: "multiset", Mode: "io", Session: w.Session})
			ready.Done()
			if err != nil {
				results <- outcome{err: err}
				return
			}
			defer rs.conn.Close()
			<-start
			if err := rs.writeEntries(trace[half:]); err != nil {
				results <- outcome{err: err}
				return
			}
			if err := rs.writeFrame(3, nil); err != nil { // frameFin
				results <- outcome{err: err}
				return
			}
			v, err := rs.readVerdict(10 * time.Second)
			results <- outcome{v: v, err: err}
		}()
	}
	ready.Wait()
	close(start)

	var verdicts []*remote.Verdict
	for i := 0; i < 2; i++ {
		o := <-results
		if o.err != nil {
			t.Logf("superseded connection (expected for the loser): %v", o.err)
			continue
		}
		verdicts = append(verdicts, o.v)
	}
	if len(verdicts) == 0 {
		t.Fatal("neither racer obtained a verdict")
	}
	for _, v := range verdicts {
		if len(v.Reports) != 1 {
			t.Fatalf("verdict reports: %+v", v)
		}
		if got := v.Reports[0].Report.Summary(); got != want {
			t.Fatalf("supersede race changed the verdict:\ngot:  %+v\nwant: %+v", got, want)
		}
	}

	// The server finished exactly one session: no duplicate, no teardown.
	m := srv.Metrics()
	if m.SessionsFinished != 1 || m.SessionsActive != 0 {
		t.Fatalf("finished=%d active=%d, want 1/0", m.SessionsFinished, m.SessionsActive)
	}
}

// waitSession blocks until the client's handshake completed and a session
// token was assigned.
func waitSession(t *testing.T, cl *remote.Client) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for cl.Session() == "" {
		if time.Now().After(deadline) {
			t.Fatal("session never established")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestZeroOptionsServeThroughScheduler pins that there is one session
// engine: a server built from zero options runs its sessions on a
// GOMAXPROCS-wide scheduler pool, and a session's verdict is a task the
// pool finished.
func TestZeroOptionsServeThroughScheduler(t *testing.T) {
	srv, addr := startServer(t, remote.ServerOptions{})
	st := srv.Metrics().Sched
	if st == nil || st.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("zero-value server pool = %+v, want %d workers", st, runtime.GOMAXPROCS(0))
	}
	cl, err := remote.NewClient(remote.ClientOptions{
		Addr:  addr,
		Hello: remote.Hello{Spec: "multiset", Mode: "io"},
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := multisetTrace(40, false)
	shipAll(t, cl, trace)
	if st := srv.Metrics().Sched; st.Finished != 1 || st.EntriesFed != int64(len(trace)) {
		t.Fatalf("session did not run on the pool: %+v", st)
	}
}

// TestOpsPrometheusText pins the Prometheus exposition of /metrics: the
// format negotiation (?format=prom and a scraper-style Accept header),
// the scheduler pool gauges, and the per-tenant counter families with
// their tenant labels.
func TestOpsPrometheusText(t *testing.T) {
	srv, addr := startServer(t, remote.ServerOptions{
		Workers: 2,
		Quotas:  fleet.Quotas{MaxSessions: 8},
	})
	web := httptest.NewServer(remote.OpsHandler(srv))
	defer web.Close()

	trace := multisetTrace(40, false)
	cl, err := remote.NewClient(remote.ClientOptions{
		Addr:  addr,
		Hello: remote.Hello{Spec: "multiset", Mode: "io", Tenant: "acme"},
	})
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, cl, trace)

	scrape := func(url string, accept string) string {
		t.Helper()
		req, err := http.NewRequest("GET", url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, r.StatusCode)
		}
		if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("GET %s: content type %q, want text/plain", url, ct)
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	body := scrape(web.URL+"/metrics?format=prom", "")
	for _, want := range []string{
		"# TYPE vyrd_sessions_finished_total counter",
		"vyrd_sessions_finished_total 1",
		fmt.Sprintf("vyrd_entries_total %d", len(trace)),
		"# TYPE vyrd_sched_workers gauge",
		"vyrd_sched_workers 2",
		"vyrd_sched_tasks_finished_total 1",
		`vyrd_tenant_sessions_total{tenant="acme"} 1`,
		`vyrd_tenant_entries_total{tenant="acme"} ` + fmt.Sprint(len(trace)),
		`vyrd_tenant_rejected_total{tenant="acme"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom exposition missing %q\n%s", want, body)
		}
	}

	// A Prometheus scraper negotiates by Accept header alone.
	if got := scrape(web.URL+"/metrics", "text/plain;version=0.0.4"); !strings.Contains(got, "vyrd_sessions_active") {
		t.Errorf("Accept-negotiated scrape not in prom format:\n%s", got)
	}

	// JSON stays the default for humans and the existing tooling.
	r, err := http.Get(web.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default /metrics content type = %q, want application/json", ct)
	}
}
