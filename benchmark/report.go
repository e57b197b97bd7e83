package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"
)

// resultFile is the -out format, and what -compare reads.
type resultFile struct {
	Env       envInfo          `json:"env"`
	Quick     bool             `json:"quick,omitempty"` // numbers not for comparison
	Workloads []workloadExport `json:"workloads"`
}

// metricExport is one metric of one workload: the reported value (Median)
// with the spread of the repetitions behind it.
type metricExport struct {
	sample
	Unit string    `json:"unit"`
	Reps []float64 `json:"reps,omitempty"`
	// Raw is the median as measured, where the reported figures are scaled
	// by the run's machine factor (reference.go); 0 where they are not.
	Raw float64 `json:"raw_median,omitempty"`
	// Pass says how an end-to-end metric was measured in this workload:
	// passOwn by the workload's own path at full size, passBackground by
	// another path's reduced background pass.
	Pass string `json:"pass,omitempty"`
}

const (
	passOwn        = "own"
	passBackground = "bg"
)

type workloadExport struct {
	Name string `json:"name"`
	// ReferenceMs is the run's median time of the reference kernel and
	// MachineFactor its ratio to the nominal one: CPU-bound end-to-end rates
	// are reported times the factor, latencies divided by it (reference.go).
	ReferenceMs   float64 `json:"reference_ms"`
	MachineFactor float64 `json:"machine_factor"`
	Attempted     int64   `json:"ops_attempted"`
	Failed        int64   `json:"ops_failed"`
	// Repeated counts schedule searches run again because their schedule
	// was not reproducible (explore.go); each is also one attempted
	// operation.
	Repeated int64 `json:"searches_repeated"`
	// Unreproducible counts the searches whose schedule still could not be
	// run again after every repeat; Notes names them. They are reported and
	// not failed: the driver needs workloads on which no operation fails.
	Unreproducible int64    `json:"searches_unreproducible"`
	Notes          []string `json:"notes,omitempty"`
	// OpsByPath splits the two counts by the path that ran the operations;
	// PathSeconds is the wall time each path took, both passes of a traced
	// run together.
	OpsByPath   map[string][2]int64     `json:"ops_by_path"`
	PathSeconds map[string]float64      `json:"path_seconds"`
	Failures    []string                `json:"failures,omitempty"`
	Missing     []string                `json:"missing_metrics,omitempty"`
	EndToEnd    map[string]metricExport `json:"end_to_end"`
	PerLayer    map[string]metricExport `json:"per_layer,omitempty"`
}

func (wr *workloadResult) export(name string) workloadExport {
	ex := workloadExport{
		Name:      name,
		OpsByPath: make(map[string][2]int64),

		PathSeconds: make(map[string]float64),
	}
	ex.ReferenceMs = wr.plain.referenceMs
	ex.MachineFactor = wr.plain.referenceMs / ms(refNominal)
	ex.EndToEnd = pick(wr.plain, endToEnd(), ex.MachineFactor, &ex.Missing)
	own := map[string]bool{"setup_s": true}
	if w, ok := workloadByName(name); ok {
		for _, m := range w.own {
			own[m] = true
		}
	}
	for m, e := range ex.EndToEnd {
		e.Pass = passBackground
		if own[m] {
			e.Pass = passOwn
		}
		ex.EndToEnd[m] = e
	}
	if wr.traced != nil {
		ex.PerLayer = pick(wr.traced, perLayer(), 0, &ex.Missing)
	}
	for _, rs := range []*results{wr.plain, wr.traced} {
		if rs == nil {
			continue
		}
		for path, n := range rs.attempted {
			c := ex.OpsByPath[path]
			c[0] += n
			c[1] += rs.failed[path]
			ex.OpsByPath[path] = c
			ex.Attempted += n
			ex.Failed += rs.failed[path]
		}
		ex.Attempted += rs.repeated
		ex.Repeated += rs.repeated
		ex.Unreproducible += rs.unreproducible
		ex.Notes = append(ex.Notes, rs.notes...)
		for path, sec := range rs.pathSeconds {
			ex.PathSeconds[path] += sec
		}
		ex.Failures = append(ex.Failures, rs.failures...)
	}
	return ex
}

// pick exports the declared metrics a run produced and names the ones it
// did not. A factor other than 0 scales the CPU-bound ones to the nominal
// box (reference.go); per-layer metrics are exported as measured.
func pick(rs *results, defs []metricDef, factor float64, missing *[]string) map[string]metricExport {
	out := make(map[string]metricExport, len(defs))
	for _, d := range defs {
		value, rows, ok := rs.figure(d.Name)
		if !ok {
			*missing = append(*missing, d.Name)
			continue
		}
		raw := 0.0
		if scale := scaleFor(d, factor); scale != 1 {
			raw, value = value, value*scale
			scaled := make([]float64, len(rows))
			for i, x := range rows {
				scaled[i] = x * scale
			}
			rows = scaled
		}
		e := metricExport{sample: summarize(rows), Unit: d.Unit, Reps: rows, Raw: raw}
		e.Median = value
		if e.N == 0 {
			e.sample = sample{N: 1, Median: value, Min: value, Max: value}
		}
		out[d.Name] = e
	}
	return out
}

// driverLine renders the one-line JSON verdict: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (ex workloadExport) driverLine(traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := ex.EndToEnd
	if traced {
		src = ex.PerLayer
	}
	metrics := make(map[string]value, len(src))
	for name, m := range src {
		metrics[name] = value{Value: m.Median, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   ex.Failed == 0 && len(ex.Missing) == 0,
		Attempted: ex.Attempted,
		Failed:    ex.Failed,
		Metrics:   metrics,
	})
	if err != nil {
		return `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`
	}
	return string(line)
}

func printWorkload(w io.Writer, ex workloadExport, o options) {
	length := fmt.Sprintf("%d s on its own path", o.seconds)
	switch {
	case o.quick:
		length = "QUICK: not for comparison"
	case o.trace:
		length = "traced invocation, both passes short: take end-to-end figures from an untraced one"
	}
	fmt.Fprintf(w, "\n== %s  (seed %d; %s; bg = another path's reduced background pass)\n", ex.Name, o.seed, length)
	fmt.Fprintf(w, "machine factor %s: the reference kernel took %s ms, %s ms on the nominal box; rates are reported times the factor, latencies divided by it, raw = the median as measured\n",
		num(ex.MachineFactor), num(ex.ReferenceMs), num(ms(refNominal)))
	printMetrics(w, endToEnd(), ex.EndToEnd)
	if ex.PerLayer != nil {
		fmt.Fprintf(w, "-- per layer (traced run)\n")
		printMetrics(w, perLayer(), ex.PerLayer)
	}
	fmt.Fprintf(w, "ops_attempted=%d ops_failed=%d searches_repeated=%d searches_unreproducible=%d; failed/attempted and seconds by path:", ex.Attempted, ex.Failed, ex.Repeated, ex.Unreproducible)
	for _, p := range workloads() {
		if c, ok := ex.OpsByPath[p.name]; ok {
			fmt.Fprintf(w, "  %s=%d/%d %.1fs", p.name, c[1], c[0], ex.PathSeconds[p.name])
		}
	}
	fmt.Fprintln(w)
	for _, f := range ex.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	for _, n := range ex.Notes {
		fmt.Fprintf(w, "NOTE %s\n", n)
	}
	for _, m := range ex.Missing {
		fmt.Fprintf(w, "MISSING metric %s\n", m)
	}
}

// printOwn prints, after a run of all workloads, each end-to-end metric once:
// as measured by its own workload.
func printOwn(w io.Writer, all []workloadExport) {
	fmt.Fprintf(w, "\n== every end-to-end metric from its own workload\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tunit\tworkload\tn\tmedian\tmin\tmax\tMAD\t")
	for _, d := range endToEnd() {
		for _, ex := range all {
			if m, ok := ex.EndToEnd[d.Name]; ok && m.Pass == passOwn && d.Name != "setup_s" {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%s\t%s\t%s\t\n", d.Name, d.Unit, ex.Name, m.N, num(m.Median), num(m.Min), num(m.Max), num(m.MAD))
			}
		}
	}
	tw.Flush()
}

func printMetrics(w io.Writer, defs []metricDef, got map[string]metricExport) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tunit\tpass\tn\tmedian\tmin\tmax\tMAD\traw\t")
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok {
			continue
		}
		raw := ""
		if m.Raw != 0 {
			raw = num(m.Raw)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%s\t%s\t%s\t%s\t\n", d.Name, d.Unit, m.Pass, m.N, num(m.Median), num(m.Min), num(m.Max), num(m.MAD), raw)
	}
	tw.Flush()
}

// num prints four significant digits without an exponent.
func num(v float64) string {
	return strconv.FormatFloat(roundSig(v, 4), 'f', -1, 64)
}
