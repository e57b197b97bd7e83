package load_test

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/fleet/load"
	"repro/internal/remote"
)

// TestRunHoldsEverySessionOpenAtPeak drives the load engine against an
// in-process server over a loopback listener: every configured session
// must be open on the server at once when AtPeak fires (the capacity
// claim), and every one must then stream a clean subject's log to a
// passing verdict.
func TestRunHoldsEverySessionOpenAtPeak(t *testing.T) {
	const sessions = 40
	s, _ := bench.SubjectByName("Multiset-Array")

	srv, err := remote.NewServer(remote.ServerOptions{Registry: bench.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	activeAtPeak := -1
	st, err := load.Run(load.Config{
		Addr:     ln.Addr().String(),
		Sessions: sessions,
		Spec:     s.Name,
		Tenant:   "load-test",
		Entries:  bench.CleanRun(s, 1),
		AtPeak:   func() { activeAtPeak = srv.Metrics().SessionsActive },
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Opened != sessions || st.VerdictsOk != sessions || st.Failed != 0 {
		t.Fatalf("load run: %+v, want %d opened, %d ok verdicts, 0 failed", st, sessions, sessions)
	}
	if activeAtPeak != sessions {
		t.Fatalf("server saw %d active sessions at peak, want %d", activeAtPeak, sessions)
	}
	if st.Entries == 0 || st.EntriesPerSec <= 0 {
		t.Fatalf("no measured stream: %+v", st)
	}
}
