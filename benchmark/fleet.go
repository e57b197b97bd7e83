package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/remote"
	"repro/vyrd"
)

// sessionResult is one client session against the in-process vyrdd.
type sessionResult struct {
	total   time.Duration // NewClient -> verdict in hand
	write   time.Duration // inside the WriteEntry loop
	verdict time.Duration // inside Flush: drain, Fin, wait for the verdict
	stats   remote.ClientStats
	err     error
}

// sessionSpec is what one session streams and what verdict it must get.
type sessionSpec struct {
	subject string
	mode    string
	entries []vyrd.Entry
	returns int64
	buggy   bool // a planted-bug witness: the verdict must be a violation
}

// streamSession opens a session, streams the trace, and waits for the
// verdict, the way a wal sink drives remote.Client.
func (r *run) streamSession(s *sessionSpec, dial func(string) (net.Conn, error), parent, rep int) sessionResult {
	var res sessionResult
	start := time.Now()
	cl, err := remote.NewClient(remote.ClientOptions{
		Addr:  r.fix.addr,
		Hello: remote.Hello{Spec: s.subject, Mode: s.mode},
		Dial:  dial,
	})
	if err != nil {
		res.err = err
		return res
	}
	defer cl.Close()
	endWrite, _ := r.tr.begin("remote.WriteEntry", parent, rep)
	for i := range s.entries {
		if err := cl.WriteEntry(s.entries[i]); err != nil {
			endWrite()
			res.err = fmt.Errorf("write entry %d: %w", i, err)
			return res
		}
	}
	endWrite()
	written := time.Now()
	endFlush, _ := r.tr.begin("remote.Flush", parent, rep)
	err = cl.Flush()
	endFlush()
	done := time.Now()
	res.total, res.write, res.verdict = done.Sub(start), written.Sub(start), done.Sub(written)
	res.stats = cl.Stats()
	res.err = sessionVerdict(s, cl.Verdict(), err)
	return res
}

func sessionVerdict(s *sessionSpec, v *remote.Verdict, err error) error {
	switch {
	case err != nil:
		return err
	case v == nil:
		return fmt.Errorf("session ended without a verdict")
	case v.Drained:
		return fmt.Errorf("server drained the session before Fin")
	case s.buggy:
		if v.Ok() {
			return fmt.Errorf("planted-bug witness of %s (%s) was not flagged", s.subject, s.mode)
		}
		return nil
	}
	return cleanVerdict(s.subject+" session", v.Report(), int64(len(s.entries)), s.returns)
}

// fleetRound runs total sessions split over T connections' worth of
// goroutines, each running its share back to back (closed loop: a goroutine
// opens its next session only after the previous verdict), and returns every
// session's result in connection order. pick chooses what session i of a
// connection streams.
func (r *run) fleetRound(w string, total int, pick func(i int) *sessionSpec, rep int, out *results) (sessions []sessionResult, wall time.Duration) {
	endRep, repSpan := r.tr.begin(w, -1, rep)
	defer endRep()
	perConn := (total + r.T - 1) / r.T
	all := make([][]sessionResult, r.T)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < r.T; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perConn; i++ {
				all[c] = append(all[c], r.streamSession(pick(i), nil, repSpan, rep))
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	for _, rs := range all {
		sessions = append(sessions, rs...)
	}
	if rep >= 0 {
		for _, s := range sessions {
			out.op(w, s.err)
		}
	}
	return sessions, wall
}

// fleetStream is the long-session path: wire framing, ack cadence, server
// decode, scheduler slices and checker feed dominate.
func (r *run) fleetStream(out *results) pathRun {
	const w = "fleet-stream"
	clean := &sessionSpec{subject: r.bySub["msarray"].name, entries: r.fix.stream, returns: countReturns(r.fix.stream)}
	var pool poolSampler
	rep := func(rep int) {
		if r.tr != nil && rep >= 0 {
			defer pool.sample(r.fix.srv)()
		}
		sessions, wall := r.fleetRound(w, r.sz.streamSessions, func(int) *sessionSpec { return clean }, rep, out)
		if rep < 0 {
			return
		}
		var entries int64
		for _, s := range sessions {
			if s.err != nil {
				continue
			}
			entries += int64(len(clean.entries))
			if r.tr != nil {
				out.add("remote.client_write_ns", "ns", perItem(s.write, int64(len(clean.entries))))
				out.add("remote.peak_buffered", "count", float64(s.stats.PeakBuffered))
			}
		}
		out.add("stream_entries_per_s", "entries/s", rate(entries, wall))
	}
	return pathRun{rep: rep, finish: func() {
		if r.tr != nil {
			pool.report(out)
		}
	}}
}

// fleetChurn is the short-session path: handshake, spec construction, task
// registration, the client's flush tick and the Fin -> verdict round trip
// dominate. One session in churnWitnessEvery streams the planted-bug
// witness and must come back flagged.
func (r *run) fleetChurn(out *results) pathRun {
	const w = "fleet-churn"
	clean := &sessionSpec{subject: r.bySub["msarray"].name, entries: r.fix.churn, returns: countReturns(r.fix.churn)}
	wit := r.fix.witnesses[0]
	buggy := &sessionSpec{subject: wit.subject, mode: wit.mode, entries: wit.entries, buggy: true}
	pick := func(i int) *sessionSpec {
		if i%churnWitnessEvery == churnWitnessEvery-1 {
			return buggy
		}
		return clean
	}
	least := 0
	if r.tr != nil {
		// remote.session_ms_p99 needs ten samples beyond it: a thousand
		// clean sessions.
		perConn := (r.sz.churnSessions + r.T - 1) / r.T
		cleanPerRep := r.T * (perConn - perConn/churnWitnessEvery)
		least = (100*minTail + cleanPerRep - 1) / cleanPerRep
	}
	rep := func(rep int) {
		sessions, _ := r.fleetRound(w, r.sz.churnSessions, pick, rep, out)
		if rep < 0 {
			return
		}
		perConn := len(sessions) / r.T
		var lat []float64
		for i, s := range sessions {
			if s.err != nil || pick(i%perConn) == buggy {
				continue // witness sessions are gates, not latency samples
			}
			lat = append(lat, ms(s.total))
			if r.tr != nil {
				out.add("remote.verdict_wait_ms", "ms", ms(s.verdict))
				out.add(sessionLatency, "ms", ms(s.total))
			}
		}
		out.add("session_ms_p50", "ms", median(lat))
		if p90, err := percentile(lat, 90); err == nil {
			out.add("session_ms_p90", "ms", p90)
		}
	}
	return pathRun{rep: rep, least: least, finish: func() {
		if r.tr == nil {
			return
		}
		if p99, err := percentile(out.reps[sessionLatency], 99); err == nil {
			out.set("remote.session_ms_p99", "ms", p99)
		}
	}}
}

const churnWitnessEvery = 50

// sessionLatency is the internal metric holding every clean churn session's
// latency of a traced pass, for the p99.
const sessionLatency = "fleet-churn.session_ms"

// poolSampler accumulates the server's scheduler counters over the traced
// fleet-stream repetitions.
type poolSampler struct {
	slices, fed   int64
	busy, workers int64 // sums over the 5 ms samples
}

// sample polls the pool's busy gauge every 5 ms until the returned stop
// function is called, and adds the counters' growth over that interval.
func (ps *poolSampler) sample(srv *remote.Server) (stop func()) {
	before := srv.Metrics().Sched
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if st := srv.Metrics().Sched; st != nil {
					ps.busy += st.Busy
					ps.workers += int64(st.Workers)
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait() // the sampler goroutine's writes happen before this returns
		if after := srv.Metrics().Sched; before != nil && after != nil {
			ps.slices += after.Slices - before.Slices
			ps.fed += after.EntriesFed - before.EntriesFed
		}
	}
}

func (ps *poolSampler) report(out *results) {
	out.set("fleet.slices", "count", float64(ps.slices))
	if ps.slices > 0 {
		out.set("fleet.entries_per_slice", "count", float64(ps.fed)/float64(ps.slices))
	}
	if ps.workers > 0 {
		out.set("fleet.utilization", "%", 100*float64(ps.busy)/float64(ps.workers))
	}
}
