// Command vyrdd is the VYRD verification server: it accepts remote
// log-shipping connections (see vyrd.AttachRemote and internal/remote) and
// runs one refinement-checker pipeline per session, taking the paper's
// "verification on spare cores" deployment (Section 6) off-box entirely.
//
// Usage:
//
//	vyrdd -listen :7669 -ops :7670
//	vyrdd -list
//
// Every evaluation subject's specification is served by name, plus the
// composed "BLinkTree+Store" modular stack. The ops listener serves
// GET /healthz and GET /metrics (JSON, or Prometheus text with
// ?format=prom). On SIGINT/SIGTERM the server drains: listeners close,
// in-flight sessions get -drain to finish and receive normal verdicts,
// and whatever remains is force-finished with a verdict over the prefix
// received so far.
//
// The fleet tier:
//
//	-workers N       size of the checker pool all sessions time-slice
//	                 over (default GOMAXPROCS)
//	-slice N         scheduler time-slice budget, entries per turn
//	-max-sessions/-max-eps/-max-window-bytes
//	                 per-tenant quotas (admission, ingest rate, window
//	                 memory); overruns throttle via delayed acks
//	-cluster A,B,C   static membership list for consistent-hash routing
//	-self A          this node's own address in -cluster
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"repro/internal/bench"
	"repro/internal/fleet"
	"repro/internal/remote"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("vyrdd", flag.ExitOnError)
	var (
		listen   = fs.String("listen", ":7669", "verification protocol listen address")
		opsAddr  = fs.String("ops", "", "HTTP ops listen address (/healthz, /metrics); empty disables")
		window   = fs.Int("window", remote.DefaultWindow, "per-session log window (entries retained ahead of the checker)")
		ackEvery = fs.Int("ackevery", remote.DefaultAckEvery, "ack cadence in entries")
		drain    = fs.Duration("drain", remote.DefaultDrainTimeout, "shutdown drain deadline for in-flight sessions")
		quiet    = fs.Bool("quiet", false, "suppress per-connection logging")
		list     = fs.Bool("list", false, "list served specs and exit")

		workers     = fs.Int("workers", runtime.GOMAXPROCS(0), "checker pool size: sessions time-slice over this many workers")
		slice       = fs.Int("slice", 0, "scheduler slice budget in entries (0 = default)")
		maxSessions = fs.Int("max-sessions", 0, "per-tenant concurrent session quota (0 = unlimited)")
		maxEPS      = fs.Int("max-eps", 0, "per-tenant ingest rate quota, entries/sec (0 = unlimited)")
		maxWindowB  = fs.Int64("max-window-bytes", 0, "per-tenant retained window memory quota in bytes (0 = unlimited)")
		cluster     = fs.String("cluster", "", "comma-separated static cluster membership for consistent-hash session routing")
		self        = fs.String("self", "", "this node's address in -cluster")
	)
	fs.Parse(args)

	registry := bench.Registry()
	if *list {
		for _, name := range registry.Names() {
			fmt.Println(name)
		}
		return 0
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
	}
	srvLogf := logf
	if *quiet {
		srvLogf = nil
	}
	var nodes []string
	if *cluster != "" {
		for _, n := range strings.Split(*cluster, ",") {
			if n = strings.TrimSpace(n); n != "" {
				nodes = append(nodes, n)
			}
		}
	}
	srv, err := remote.NewServer(remote.ServerOptions{
		Registry:     registry,
		Window:       *window,
		AckEvery:     *ackEvery,
		DrainTimeout: *drain,
		Workers:      *workers,
		SliceBudget:  *slice,
		Quotas: fleet.Quotas{
			MaxSessions:      *maxSessions,
			MaxEntriesPerSec: *maxEPS,
			MaxWindowBytes:   *maxWindowB,
		},
		Cluster: nodes,
		Self:    *self,
		Logf:    srvLogf,
	})
	if err != nil {
		logf("vyrdd: %v", err)
		return 2
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logf("vyrdd: %v", err)
		return 2
	}
	logf("vyrdd: serving %d specs on %s", len(registry.Names()), ln.Addr())
	if *workers > 0 {
		logf("vyrdd: fleet scheduler on: %d workers, slice budget %d entries",
			*workers, max(*slice, fleet.DefaultSliceBudget))
	}
	if len(nodes) > 0 {
		logf("vyrdd: cluster routing on: self=%s members=%v", *self, nodes)
	}

	var opsSrv *http.Server
	if *opsAddr != "" {
		opsLn, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			logf("vyrdd: ops: %v", err)
			return 2
		}
		opsSrv = &http.Server{Handler: remote.OpsHandler(srv)}
		go opsSrv.Serve(opsLn)
		logf("vyrdd: ops surface on http://%s", opsLn.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logf("vyrdd: %v: draining (deadline %v)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		srv.Shutdown(ctx)
		if opsSrv != nil {
			opsSrv.Close()
		}
		m := srv.Metrics()
		logf("vyrdd: drained: sessions=%d entries=%d violations=%d",
			m.SessionsFinished, m.EntriesTotal, m.ViolationsTotal)
		return 0
	case err := <-serveErr:
		if err != nil {
			logf("vyrdd: %v", err)
			return 2
		}
		return 0
	}
}
