package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/racecheck"
)

// inTempDir runs the test from a scratch directory: the benchmark writes
// below .bench_build of wherever it is started.
func inTempDir(t *testing.T) string {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
	return dir
}

// TestQuickRun drives every path of the benchmark in-process at smoke sizes,
// so that tier-1 fails the day an API the benchmark calls is removed or an
// end-to-end metric stops being produced. Later performance changes may not
// edit this directory; drift has to surface where they can see it. It runs
// untraced: the traced pass triples the time, and this test shares a
// two-core box with timing-sensitive scheduler tests.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every path of the benchmark once: a few seconds")
	}
	if racecheck.Enabled {
		t.Skip("set-up and schedule search run planted bugs, which are intentional data races")
	}
	dir := inTempDir(t)
	out := filepath.Join(dir, "quick.json")
	const own = "fleet-churn"
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-quick", "-workload", own, "-out", out}, &stdout, &stderr)
	t.Logf("exit %d\n%s%s", code, stdout.String(), stderr.String())

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("no result file: %v", err)
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !file.Quick || len(file.Workloads) != 1 {
		t.Fatalf("quick = %v with %d workloads, want one quick pass", file.Quick, len(file.Workloads))
	}
	w := file.Workloads[0]
	if len(w.Missing) > 0 {
		t.Errorf("declared metrics not produced: %v", w.Missing)
	}
	// The workload's own metrics are the measured ones: never fewer
	// repetitions than a background pass gets.
	ownN, bgN := 0, 0
	for _, d := range endToEnd() {
		m, ok := w.EndToEnd[d.Name]
		if !ok {
			continue
		}
		if !(m.Median > 0) {
			t.Errorf("%s = %v, want > 0", d.Name, m.Median)
		}
		switch {
		case d.Name == "setup_s":
		case m.Pass == passOwn && (ownN == 0 || m.N < ownN):
			ownN = m.N
		case m.Pass == passBackground && m.N > bgN:
			bgN = m.N
		}
	}
	if ownN == 0 || bgN == 0 || ownN < bgN {
		t.Errorf("own metrics have n >= %d, a background metric n = %d; want own >= background > 0", ownN, bgN)
	}
	if !(w.MachineFactor > 0) || !(w.ReferenceMs > 0) {
		t.Errorf("machine factor %v from a reference of %v ms, want both > 0", w.MachineFactor, w.ReferenceMs)
	}
	for _, p := range workloads() {
		if w.OpsByPath[p.name][0] == 0 {
			t.Errorf("%s attempted no operations", p.name)
		}
	}
	// A schedule that stays unreproducible through every repeat, which a
	// loaded `go test ./...` can cause on the subjects scheduled by 1 ms
	// wall-clock timeouts (the known-red scheduler tests), is a note and not
	// a failed operation. Every failed operation, schedule search's included,
	// is an error, and so is an exit code that hides one.
	for _, f := range w.Failures {
		t.Errorf("failed operation: %s", f)
	}
	for _, n := range w.Notes {
		t.Log(n)
	}
	if (code == 0) != (w.Failed == 0) {
		t.Errorf("exit code %d with %d failed operations", code, w.Failed)
	}

	last := strings.TrimSpace(stdout.String())
	last = last[strings.LastIndexByte(last, '\n')+1:]
	var line struct {
		Correct   *bool                      `json:"correct"`
		Attempted int64                      `json:"attempted"`
		Failed    *int64                     `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		t.Fatalf("last line of stdout is not the result object: %v\n%s", err, last)
	}
	if line.Correct == nil || line.Failed == nil || line.Attempted < 1 || len(line.Metrics) != len(endToEnd()) {
		t.Errorf("result object: correct=%v attempted=%d failed=%v, %d metrics (want the %d end-to-end ones)",
			line.Correct, line.Attempted, line.Failed, len(line.Metrics), len(endToEnd()))
	}
}

// TestScheduleFavoursOwnPath pins the roles: the own path runs ownReps with
// no budget and for as long as a budget lasts with one, a background path
// its fixed count whatever the budget.
func TestScheduleFavoursOwnPath(t *testing.T) {
	r := &run{sz: sizes{ownReps: 5, bgReps: 3}}
	for _, budget := range []time.Duration{0, 60 * time.Millisecond} {
		timed := make([]int, 3)
		warm := make([]int, 3)
		paths := make([]pathRun, 3)
		for i := range paths {
			paths[i] = pathRun{rep: func(rep int) {
				time.Sleep(time.Millisecond)
				if rep < 0 {
					warm[i]++
				} else if rep != timed[i] {
					t.Errorf("path %d: repetition %d numbered %d", i, timed[i], rep)
				} else {
					timed[i]++
				}
			}}
		}
		paths[2].cold, paths[2].bgReps = true, 1
		r.schedule(paths, 0, budget, make([]float64, 3))
		if timed[1] != 3 || timed[2] != 1 || warm[0] != 1 || warm[1] != 1 || warm[2] != 0 {
			t.Errorf("budget %v: background repetitions %v, warm-ups %v", budget, timed, warm)
		}
		switch {
		case budget == 0 && timed[0] != 5:
			t.Errorf("no budget: own path ran %d repetitions, want the least, 5", timed[0])
		case budget > 0 && (timed[0] < 20 || timed[0] > 60):
			t.Errorf("budget %v at 1 ms a repetition: own path ran %d", budget, timed[0])
		}
	}
}

// TestScheduleBoundsASlowBox pins what keeps an invocation inside the
// driver's time on a box that has turned slow: past floorReps, a background
// pass stops at its cap and the own path at its budget, whatever the counts
// in sizes ask for.
func TestScheduleBoundsASlowBox(t *testing.T) {
	r := &run{sz: sizes{ownReps: 5, bgReps: 8, bgCap: 10 * time.Millisecond}}
	timed := make([]int, 2)
	paths := make([]pathRun, 2)
	for i := range paths {
		paths[i] = pathRun{rep: func(rep int) {
			time.Sleep(10 * time.Millisecond)
			if rep >= 0 {
				timed[i]++
			}
		}}
	}
	r.schedule(paths, 0, 20*time.Millisecond, make([]float64, 2))
	if timed[0] != floorReps || timed[1] != floorReps {
		t.Errorf("timed repetitions %v, want the floor of %d for both", timed, floorReps)
	}
}

// TestScaleFor pins which way the machine factor goes: a box on which the
// reference kernel takes 1.4x as long gets its CPU-bound rates raised and
// its latencies lowered by that, and the timeout-bound metrics left alone.
func TestScaleFor(t *testing.T) {
	for _, d := range endToEnd() {
		got := scaleFor(d, 1.4)
		want := 1.4
		switch {
		case unscaled[d.Name]:
			want = 1
		case d.Better == lower:
			want = 1 / 1.4
		}
		if got != want {
			t.Errorf("%s (%s is better): scale %v, want %v", d.Name, d.Better, got, want)
		}
		if got := scaleFor(d, 0); got != 1 {
			t.Errorf("%s: scale %v without a factor, want 1", d.Name, got)
		}
	}
}

func TestFlagForms(t *testing.T) {
	got := joinBoolValue([]string{"--workload", "x", "--trace", "1", "--seed", "3", "-trace", "-quick", "--trace", "0"}, "trace")
	want := []string{"--workload", "x", "--trace=1", "--seed", "3", "-trace", "-quick", "--trace=0"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("joinBoolValue = %v, want %v", got, want)
	}
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-workload", "no-such"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload accepted")
	}
}

func TestCompare(t *testing.T) {
	dir := inTempDir(t)
	manifest := `{"end_to_end":[
		{"name":"rate","unit":"1/s","better":"higher","bound":0.10},
		{"name":"lat","unit":"ms","better":"lower","bound":0.10}]}`
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	metric := func(reps ...float64) metricExport {
		return metricExport{sample: summarize(reps), Unit: "x", Reps: reps}
	}
	write := func(name string, rate, lat metricExport, failed int64) string {
		f := resultFile{Workloads: []workloadExport{{
			Name: "w", Attempted: 100, Failed: failed,
			EndToEnd: map[string]metricExport{"rate": rate, "lat": lat},
		}}}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", metric(100, 101, 99, 100, 100), metric(10, 10.1, 9.9, 10, 10), 0)
	cases := []struct {
		name      string
		rate, lat metricExport
		failed    int64
		code      int
		verdicts  []string
	}{
		{"same", metric(103, 104, 102, 103, 103), metric(10.2, 10.3, 10.1, 10.2, 10.2), 0, 0, []string{verdictSame, verdictSame}},
		{"rate worse", metric(80, 81, 79, 80, 80), metric(10, 10, 10, 10, 10), 0, 1, []string{verdictWorse, verdictSame}},
		{"latency worse", metric(100, 100, 100, 100, 100), metric(12, 12, 12, 12, 12), 0, 1, []string{verdictSame, verdictWorse}},
		{"both better", metric(130, 131, 129, 130, 130), metric(7, 7, 7, 7, 7), 0, 0, []string{verdictBetter, verdictBetter}},
		{"too noisy to call", metric(60, 140, 100, 80, 120), metric(10, 10, 10, 10, 10), 0, 0, []string{verdictUnresolved, verdictSame}},
		{"noisy but every run better", metric(150, 300, 200, 180, 260), metric(10, 10, 10, 10, 10), 0, 0, []string{verdictBetter, verdictSame}},
		{"more failures", metric(100, 100, 100, 100, 100), metric(10, 10, 10, 10, 10), 3, 1, []string{verdictSame, verdictSame}},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		other := write("b.json", c.rate, c.lat, c.failed)
		code := compareFiles(base, other, "BENCHMARK.json", &stdout, &stderr)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, stdout.String(), stderr.String())
		}
		var got []string
		for _, row := range strings.Split(stdout.String(), "\n") {
			if f := strings.Fields(row); len(f) > 2 && f[0] == "w" {
				got = append(got, f[len(f)-1])
			}
		}
		if strings.Join(got, ",") != strings.Join(c.verdicts, ",") {
			t.Errorf("%s: verdicts %v, want %v\n%s", c.name, got, c.verdicts, stdout.String())
		}
	}
}
