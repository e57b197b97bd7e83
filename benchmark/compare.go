package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of one workload x end-to-end metric comparison.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "WORSE"
	verdictUnresolved = "unresolved"
)

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// judge compares one metric of the change (b) against the parent (a). A
// spread wider than the bound means the two sides cannot be told apart at
// that resolution: unresolved, unless every repetition of b reads better
// than every repetition of a.
func judge(a, b metricExport, d metricDef) string {
	if a.Median == 0 {
		return verdictUnresolved
	}
	// how much b is worse than a, as a share of a's value
	worse := (b.Median - a.Median) / a.Median
	if d.Better == higher {
		worse = -worse
	}
	wide := false
	for _, reps := range [][]float64{a.Reps, b.Reps} {
		if s, ok := spread(reps); ok && s > d.Bound {
			wide = true
		}
	}
	if wide {
		if len(a.Reps) > 0 && len(b.Reps) > 0 && allBetter(a.Reps, b.Reps, d.Better) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch {
	case worse > d.Bound:
		return verdictWorse
	case worse < -d.Bound:
		return verdictBetter
	}
	return verdictSame
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sorted(a), sorted(b)
	if better == higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareFiles prints, per workload x end-to-end metric, both medians, the
// delta, the bound and a verdict. It returns non-zero on any WORSE, on a
// higher failed share, or when the files cannot be compared.
func compareFiles(pathA, pathB, manifestPath string, stdout, stderr io.Writer) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	man, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(stderr, "bounds come from BENCHMARK.json; run from the repository root: %v\n", err)
		return 2
	}
	if a.Quick || b.Quick {
		fmt.Fprintln(stderr, "a -quick result is not for comparison")
		return 2
	}
	byName := make(map[string]workloadExport)
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}

	bad := 0
	counts := make(map[string]int)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tdelta\tbound\tverdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(stderr, "workload %s is in %s only\n", wa.Name, pathA)
			bad++
			continue
		}
		for _, d := range man.EndToEnd {
			ma, okA := wa.EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				fmt.Fprintf(stderr, "%s/%s is missing from one side\n", wa.Name, d.Name)
				bad++
				continue
			}
			verdict := judge(ma, mb, d)
			counts[verdict]++
			if verdict == verdictWorse {
				bad++
			}
			// Print the delta in the metric's own direction of change.
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				wa.Name, d.Name, d.Unit, num(ma.Median), num(mb.Median), 100*(mb.Median-ma.Median)/ma.Median, 100*d.Bound, verdict)
		}
		shareA := float64(wa.Failed) / float64(max(wa.Attempted, 1))
		shareB := float64(wb.Failed) / float64(max(wb.Attempted, 1))
		if shareB > shareA {
			fmt.Fprintf(stderr, "%s: failed share rose from %d/%d to %d/%d\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			bad++
		}
	}
	tw.Flush()
	fmt.Fprintf(stdout, "%d same, %d better, %d WORSE, %d unresolved\n",
		counts[verdictSame], counts[verdictBetter], counts[verdictWorse], counts[verdictUnresolved])
	if bad > 0 {
		return 1
	}
	return 0
}
