package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef declares one reported metric; BENCHMARK.json at the repository
// root must list exactly these (manifest_test.go holds the two together).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workload is one named workload: the path it measures and why it exists.
type workload struct {
	name string
	why  string
	path func(r *run, out *results) pathRun
	// own lists the end-to-end metrics the workload's path produces; the
	// workload's trace_overhead_pct is taken over these.
	own []string
}

func workloads() []workload {
	return []workload{
		{name: "online-live",
			why:  "live checking: subject, probe and wal append do the work; program alone, + view logging, + online checker to verdict",
			path: (*run).onlineLive,
			own:  []string{"prog_methods_per_s", "logged_methods_per_s", "online_methods_per_s"}},
		{name: "offline-replay",
			why:  "file to verdict: event decode and the three checkers do the work; no probe, append, sink or network",
			path: (*run).offlineReplay,
			own:  []string{"replay_refine_entries_per_s", "replay_linearize_entries_per_s", "replay_ltl_entries_per_s"}},
		{name: "record-durable",
			why:  "durable recording: encode and fsync'd sink beside offline-replay's decode, then recovery; no checker",
			path: (*run).recordDurableWorkload,
			own:  []string{"record_entries_per_s", "recover_mb_per_s"}},
		{name: "fleet-stream",
			why:  "long vyrdd sessions: wire framing, acks, server decode, scheduler slices and checker feed do the work",
			path: (*run).fleetStream,
			own:  []string{"stream_entries_per_s"}},
		{name: "fleet-churn",
			why:  "short vyrdd sessions: handshake, spec construction, task registration, flush tick and Fin-to-verdict do the work",
			path: (*run).fleetChurn,
			own:  []string{"session_ms_p50", "session_ms_p90"}},
		{name: "explore-search",
			why:  "schedule search: sched, explore and harness on tiny logs; lock-based cells are timeout-bound",
			path: (*run).exploreSearch,
			own:  []string{"lock_schedules_per_s", "lockfree_schedules_per_s", "find_bugs_s"}},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the numbers a user of the system sees, measured with
// tracing off.
func endToEnd() []metricDef {
	return []metricDef{
		{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
		{Name: "prog_methods_per_s", Unit: "methods/s", Better: higher, Bound: 0.25},
		{Name: "logged_methods_per_s", Unit: "methods/s", Better: higher, Bound: 0.25},
		{Name: "online_methods_per_s", Unit: "methods/s", Better: higher, Bound: 0.25},
		{Name: "replay_refine_entries_per_s", Unit: "entries/s", Better: higher, Bound: 0.25},
		{Name: "replay_linearize_entries_per_s", Unit: "entries/s", Better: higher, Bound: 0.25},
		{Name: "replay_ltl_entries_per_s", Unit: "entries/s", Better: higher, Bound: 0.25},
		{Name: "record_entries_per_s", Unit: "entries/s", Better: higher, Bound: 0.25},
		{Name: "recover_mb_per_s", Unit: "MB/s", Better: higher, Bound: 0.25},
		{Name: "stream_entries_per_s", Unit: "entries/s", Better: higher, Bound: 0.25},
		{Name: "session_ms_p50", Unit: "ms", Better: lower, Bound: 0.25},
		{Name: "session_ms_p90", Unit: "ms", Better: lower, Bound: 0.25},
		{Name: "lock_schedules_per_s", Unit: "schedules/s", Better: higher, Bound: 0.25},
		{Name: "lockfree_schedules_per_s", Unit: "schedules/s", Better: higher, Bound: 0.25},
		{Name: "find_bugs_s", Unit: "s", Better: lower, Bound: 0.25},
	}
}

// perLayer are the single-layer numbers of the traced run; layer = package.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	perSubject := func(prefix, unit, better string) {
		for _, m := range mixSubjects() {
			add(prefix+"."+m.key, unit, better)
		}
	}
	perSubject("harness.method_ns", "ns", lower)
	add("vyrd.probe_ns", "ns", lower)
	perSubject("vyrd.entries_per_method", "count", lower)

	add("wal.append_ns_1p", "ns", lower)
	add("wal.append_ns_np", "ns", lower)
	add("wal.pipeline_ns", "ns", lower)
	add("wal.blocked_waits", "count", lower)
	add("wal.max_lag_entries", "count", lower)
	add("wal.peak_retained_entries", "count", lower)
	add("wal.reader_lag_us_p50", "us", lower)
	add("wal.reader_lag_us_p99", "us", lower)
	add("wal.sink_buffered_ns", "ns", lower)
	add("wal.sink_fsync_ns", "ns", lower)
	add("wal.fsyncs", "count", lower)
	add("wal.recover_ns", "ns", lower)

	add("event.encode_ns", "ns", lower)
	add("event.bytes_per_entry", "B", lower)
	add("event.decode_ns", "ns", lower)
	add("event.decode_parallel_ns", "ns", lower)

	add("core.feed_io_ns", "ns", lower)
	perSubject("core.feed_view_ns", "ns", lower)
	add("core.commits", "count", lower)
	add("core.observers", "count", lower)
	add("core.writes_replayed", "count", lower)
	add("core.views_compared", "count", lower)
	add("core.online_drain_ms", "ms", lower)

	add("view.update_ns", "ns", lower)

	perSubject("linearize.feed_ns", "ns", lower)
	add("linearize.states_per_op", "count", lower)
	add("linearize.segcache_hit_rate", "%", higher)
	add("linearize.feed_ns_long", "ns", lower)

	add("ltl.feed_ns", "ns", lower)
	add("ltl.props", "count", higher)

	add("remote.open_ms", "ms", lower)
	add("remote.client_write_ns", "ns", lower)
	add("remote.verdict_wait_ms", "ms", lower)
	add("remote.wire_bytes_per_entry", "B", lower)
	add("remote.peak_buffered", "count", lower)
	add("remote.session_ms_p99", "ms", lower)

	add("fleet.slices", "count", lower)
	add("fleet.entries_per_slice", "count", higher)
	add("fleet.utilization", "%", higher)
	add("fleet.sched_ns", "ns", lower)

	for _, es := range exploreSubjects {
		add("sched.steps_per_schedule."+es.key, "count", lower)
		add("sched.ns_per_step."+es.key, "ns", lower)
		add("sched.steals_per_schedule."+es.key, "count", lower)
		add("explore.run_share."+es.key, "%", higher)
	}
	add("explore.classes_per_schedule", "ratio", higher)
	add("explore.pruned", "count", higher)
	add("explore.freeruns", "count", lower)
	add("explore.schedules_to_violation", "count", lower)
	add("explore.replay_retries", "count", lower)
	add("explore.unreproducible", "count", lower)
	add("explore.shrink_ratio", "ratio", lower)
	add("explore.shrink_ms", "ms", lower)

	for _, w := range workloads() {
		add("trace_overhead_pct."+w.name, "%", lower)
	}
	add("offline-replay.residual_pct", "%", lower)
	add("online-live.verifier_bound", "count", lower)
	return out
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}
