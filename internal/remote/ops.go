package remote

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// OpsHandler is the server's live operations surface, served over plain
// net/http:
//
//	GET /healthz — liveness: ok, draining flag, uptime, active sessions
//	GET /metrics — counters: totals plus one object per live session
//	  (entries ingested, entries/sec, verifier lag, retained window
//	  bytes, the session log's pipeline stats), the checker-pool gauges
//	  when the scheduler is on, per-tenant quota counters, and the
//	  recently finished sessions with their report summaries
//
// /metrics defaults to JSON and serves Prometheus text exposition when
// asked — `GET /metrics?format=prom`, or an Accept header preferring
// text/plain (what a Prometheus scraper sends). /healthz answers 503
// while draining so load balancers stop routing new work at a server
// that will not accept it.
func OpsHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := s.Health()
		code := http.StatusOK
		if !h.Ok {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsProm(r) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(PromText(s.Metrics())))
			return
		}
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	return mux
}

// wantsProm decides the exposition format: an explicit format=prom
// query wins; otherwise an Accept header that prefers text/plain (and
// does not ask for JSON) selects Prometheus text.
func wantsProm(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}

// PromText renders a Server.Metrics snapshot in the Prometheus text
// exposition format (version 0.0.4): the server totals, the scheduler pool
// gauges, and the per-tenant counters labeled by tenant token.
func PromText(m Metrics) string {
	var b strings.Builder
	g := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	c := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}

	g("vyrd_uptime_seconds", "Seconds since the server started.", m.UptimeSeconds)
	g("vyrd_sessions_active", "Live verification sessions.", float64(m.SessionsActive))
	c("vyrd_sessions_started_total", "Sessions ever started.", float64(m.SessionsStarted))
	c("vyrd_sessions_finished_total", "Sessions finished with a verdict.", float64(m.SessionsFinished))
	c("vyrd_entries_total", "Log entries ingested across all sessions.", float64(m.EntriesTotal))
	c("vyrd_violations_total", "Refinement violations across all verdicts.", float64(m.ViolationsTotal))

	var windowBytes int64
	for _, sm := range m.Sessions {
		windowBytes += sm.WindowBytes
	}
	g("vyrd_window_bytes", "Retained window memory across live session logs.", float64(windowBytes))

	st := *m.Sched
	g("vyrd_sched_workers", "Checker pool size.", float64(st.Workers))
	g("vyrd_sched_busy_workers", "Workers currently mid-slice.", float64(st.Busy))
	g("vyrd_sched_runnable_sessions", "Sessions queued with pending entries.", float64(st.Runnable))
	g("vyrd_sched_tasks", "Live scheduled sessions.", float64(st.Tasks))
	g("vyrd_sched_pool_utilization", "Busy fraction of the checker pool (0..1).", st.Utilization())
	c("vyrd_sched_slices_total", "Cooperative time slices executed.", float64(st.Slices))
	c("vyrd_sched_entries_fed_total", "Entries fed through checker engines.", float64(st.EntriesFed))
	c("vyrd_sched_tasks_finished_total", "Scheduled sessions drained to a verdict.", float64(st.Finished))

	if len(m.Tenants) > 0 {
		family := func(name, typ, help string) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		}
		// %q escapes backslashes, quotes and newlines exactly as the
		// exposition format requires for label values.
		row := func(name, tenant string, v float64) {
			fmt.Fprintf(&b, "%s{tenant=%q} %g\n", name, tenant, v)
		}
		family("vyrd_tenant_sessions", "gauge", "Live sessions per tenant.")
		for _, t := range m.Tenants {
			row("vyrd_tenant_sessions", t.Tenant, float64(t.Sessions))
		}
		family("vyrd_tenant_sessions_total", "counter", "Sessions ever admitted per tenant.")
		for _, t := range m.Tenants {
			row("vyrd_tenant_sessions_total", t.Tenant, float64(t.SessionsTotal))
		}
		family("vyrd_tenant_rejected_total", "counter", "Session admissions refused by quota per tenant.")
		for _, t := range m.Tenants {
			row("vyrd_tenant_rejected_total", t.Tenant, float64(t.Rejected))
		}
		family("vyrd_tenant_throttle_waits_total", "counter", "Ingest pauses served as backpressure per tenant.")
		for _, t := range m.Tenants {
			row("vyrd_tenant_throttle_waits_total", t.Tenant, float64(t.ThrottleWaits))
		}
		family("vyrd_tenant_entries_total", "counter", "Entries ingested per tenant.")
		for _, t := range m.Tenants {
			row("vyrd_tenant_entries_total", t.Tenant, float64(t.Entries))
		}
		family("vyrd_tenant_window_bytes", "gauge", "Retained window memory per tenant.")
		for _, t := range m.Tenants {
			row("vyrd_tenant_window_bytes", t.Tenant, float64(t.WindowBytes))
		}
	}
	return b.String()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
