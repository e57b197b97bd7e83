package core

import (
	"fmt"
	"strings"

	"repro/internal/event"
)

// ViolationKind classifies a refinement violation.
type ViolationKind uint8

const (
	// ViolationIO: the specification cannot execute the committing method
	// with the observed return value at the current state of the witness
	// interleaving (Section 4).
	ViolationIO ViolationKind = iota + 1
	// ViolationObserver: an observer's return value is not permitted at any
	// specification state between its call and return (Section 4.3).
	ViolationObserver
	// ViolationView: viewI differs from viewS at a mutator commit
	// (Section 5).
	ViolationView
	// ViolationInvariant: a replica invariant failed after a committed
	// update was applied (Section 7.2.1).
	ViolationInvariant
	// ViolationInstrumentation: the log itself is malformed — a mutator
	// execution without a commit action, a commit outside a method, a
	// commit in an observer, an unterminated commit block, or a write the
	// replayer cannot apply. These usually mean the commit-point annotation
	// must be re-examined (Section 4.1).
	ViolationInstrumentation
	// ViolationLinearizability: no linearization of the completed method
	// executions exists — every total order consistent with the real-time
	// call/return order is rejected by the sequential specification. Reported
	// by the linearize engine (ModeLinearize), never by the refinement
	// checker.
	ViolationLinearizability
	// ViolationTemporal: an LTL3 property over the log collapsed to false —
	// the finite trace already refutes it on every infinite extension.
	// Reported by the temporal engine (ModeLTL), never by the refinement
	// checker; Seq points at the log position whose entry collapsed the
	// formula (the witness position).
	ViolationTemporal
)

// String returns the name of the violation kind.
func (k ViolationKind) String() string {
	switch k {
	case ViolationIO:
		return "io-refinement"
	case ViolationObserver:
		return "observer"
	case ViolationView:
		return "view-refinement"
	case ViolationInvariant:
		return "invariant"
	case ViolationInstrumentation:
		return "instrumentation"
	case ViolationLinearizability:
		return "linearizability"
	case ViolationTemporal:
		return "temporal"
	}
	return fmt.Sprintf("violation(%d)", uint8(k))
}

// MarshalJSON renders the kind by name in machine-readable reports.
func (k ViolationKind) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", k.String())), nil
}

// UnmarshalJSON parses a kind by name, the inverse of MarshalJSON, so
// reports survive a JSON round trip (the remote protocol ships verdicts as
// JSON report frames).
func (k *ViolationKind) UnmarshalJSON(b []byte) error {
	for cand := ViolationIO; cand <= ViolationTemporal; cand++ {
		if string(b) == fmt.Sprintf("%q", cand.String()) {
			*k = cand
			return nil
		}
	}
	return fmt.Errorf("core: unknown violation kind %s", b)
}

// Violation describes one detected refinement violation.
type Violation struct {
	Kind   ViolationKind
	Seq    int64  // log sequence number of the entry that triggered detection
	Tid    int32  // thread whose action triggered detection
	Method string // method involved, when known
	Detail string // human-readable diagnosis

	// MethodsCompleted is the number of method executions that had
	// completed (returned) in the witness interleaving when the violation
	// was detected; the paper's Table 1 metric.
	MethodsCompleted int64
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s violation at #%d (t%d %s): %s", v.Kind, v.Seq, v.Tid, v.Method, v.Detail)
}

// Report summarizes one checking run.
type Report struct {
	Mode Mode

	// Violations holds the recorded violations in detection order, capped
	// by WithMaxViolations. TotalViolations counts all of them.
	Violations      []Violation
	TotalViolations int64

	// MethodsCompleted counts processed return actions (application and
	// worker threads combined).
	MethodsCompleted int64
	// CommitsApplied counts mutator commits driven through the spec.
	CommitsApplied int64
	// ObserversChecked counts observer executions validated.
	ObserversChecked int64
	// WritesReplayed counts write actions applied to the replica.
	WritesReplayed int64
	// ViewsCompared counts viewI/viewS comparisons performed.
	ViewsCompared int64
	// EntriesProcessed counts log entries consumed.
	EntriesProcessed int64

	// PropsSatisfied / PropsViolated / PropsInconclusive count temporal
	// properties by their LTL3 verdict at log end (ModeLTL only). Every
	// monitored property lands in exactly one bucket: satisfied (true on
	// every infinite extension), violated (false on every extension), or
	// inconclusive (the finite trace decided neither).
	PropsSatisfied    int64 `json:",omitempty"`
	PropsViolated     int64 `json:",omitempty"`
	PropsInconclusive int64 `json:",omitempty"`

	// LogErr records a failure of the log the checker read — a sink that
	// could not persist entries, a stream that failed to decode. The
	// verdict is not trustworthy when set: part of the execution may be
	// missing from what was checked.
	LogErr string `json:",omitempty"`
}

// Ok reports whether no violation was detected and the log was read
// without failure.
func (r *Report) Ok() bool { return r.TotalViolations == 0 && r.LogErr == "" }

// Summary is the compact machine-readable digest of a Report: the one
// serialization of a verdict's counters as JSON (the vyrdd /metrics
// endpoint, the benchmark's result files), so dashboards parse a single
// shape.
type Summary struct {
	Mode             Mode  `json:"mode"`
	Ok               bool  `json:"ok"`
	TotalViolations  int64 `json:"total_violations"`
	EntriesProcessed int64 `json:"entries_processed"`
	MethodsCompleted int64 `json:"methods_completed"`
	CommitsApplied   int64 `json:"commits_applied"`
	ObserversChecked int64 `json:"observers_checked"`
	WritesReplayed   int64 `json:"writes_replayed,omitempty"`
	ViewsCompared    int64 `json:"views_compared,omitempty"`

	PropsSatisfied    int64 `json:"props_satisfied,omitempty"`
	PropsViolated     int64 `json:"props_violated,omitempty"`
	PropsInconclusive int64 `json:"props_inconclusive,omitempty"`

	FirstViolation string `json:"first_violation,omitempty"`
	LogErr         string `json:"log_err,omitempty"`
}

// Summary digests the report.
func (r *Report) Summary() Summary {
	s := Summary{
		Mode:             r.Mode,
		Ok:               r.Ok(),
		TotalViolations:  r.TotalViolations,
		EntriesProcessed: r.EntriesProcessed,
		MethodsCompleted: r.MethodsCompleted,
		CommitsApplied:   r.CommitsApplied,
		ObserversChecked: r.ObserversChecked,
		WritesReplayed:   r.WritesReplayed,
		ViewsCompared:    r.ViewsCompared,

		PropsSatisfied:    r.PropsSatisfied,
		PropsViolated:     r.PropsViolated,
		PropsInconclusive: r.PropsInconclusive,

		LogErr: r.LogErr,
	}
	if v := r.First(); v != nil {
		s.FirstViolation = v.String()
	}
	return s
}

// First returns the first detected violation, or nil if none.
func (r *Report) First() *Violation {
	if len(r.Violations) == 0 {
		return nil
	}
	return &r.Violations[0]
}

// String renders a summary suitable for CLI output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s entries=%d methods=%d commits=%d observers=%d",
		r.Mode, r.EntriesProcessed, r.MethodsCompleted, r.CommitsApplied, r.ObserversChecked)
	if r.Mode == ModeView {
		fmt.Fprintf(&b, " writes=%d view-compares=%d", r.WritesReplayed, r.ViewsCompared)
	}
	if r.Mode == ModeLTL {
		fmt.Fprintf(&b, " props=%d/%d/%d (satisfied/inconclusive/violated)",
			r.PropsSatisfied, r.PropsInconclusive, r.PropsViolated)
	}
	if r.LogErr != "" {
		fmt.Fprintf(&b, "\nlog error (verdict incomplete): %s", r.LogErr)
	}
	if r.Ok() {
		switch r.Mode {
		case ModeLinearize:
			b.WriteString("\nno linearizability violations detected")
		case ModeLTL:
			b.WriteString("\nno temporal property violations detected")
		default:
			b.WriteString("\nno refinement violations detected")
		}
		return b.String()
	}
	fmt.Fprintf(&b, "\n%d violation(s) detected:", r.TotalViolations)
	for i := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(r.Violations[i].String())
	}
	if int64(len(r.Violations)) < r.TotalViolations {
		fmt.Fprintf(&b, "\n  ... and %d more", r.TotalViolations-int64(len(r.Violations)))
	}
	return b.String()
}

// signatureString renders the signature of an invocation for diagnostics.
func signatureString(tid int32, method string, args []event.Value, ret event.Value) string {
	return event.Signature{Tid: tid, Method: method, Args: args, Ret: ret}.String()
}
