package main

import (
	"reflect"
	"regexp"
	"testing"
)

// BENCHMARK.json is what the driver reads; the tables in metrics.go are
// what the program reports. They must say the same thing.
func TestManifestMatchesProgram(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(m.Command, want) {
		t.Errorf("command = %v, want %v", m.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(m.Paths, want) {
		t.Errorf("paths = %v, want %v", m.Paths, want)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", m.RunSeconds, defaultSeconds)
	}

	ws := workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d implemented", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, implemented %q (%q)", i, m.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd()) {
		t.Errorf("end_to_end differs:\ndeclared    %+v\nimplemented %+v", m.EndToEnd, endToEnd())
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer()) {
		t.Errorf("per_layer differs:\ndeclared    %+v\nimplemented %+v", m.PerLayer, perLayer())
	}
}

// The driver refuses a manifest outside these limits before a single run.
func TestManifestWithinDriverLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not driver-legal", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	ws := workloads()
	if len(ws) < 2 || len(ws) > 8 {
		t.Errorf("%d workloads, want 2..8", len(ws))
	}
	for _, w := range ws {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.name, len(w.why))
		}
		for _, own := range w.own {
			found := false
			for _, d := range endToEnd() {
				found = found || d.Name == own
			}
			if !found {
				t.Errorf("%s owns %q, which is not an end-to-end metric", w.name, own)
			}
		}
	}
	e2e, layers := endToEnd(), perLayer()
	if len(e2e) < 1 || len(e2e) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(e2e))
	}
	if len(layers) < 1 || len(layers) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(layers))
	}
	hasSetup := false
	for _, d := range e2e {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is required")
	}
	for _, d := range append(e2e, layers...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not driver-legal", d.Name, d.Unit)
		}
		if d.Better != higher && d.Better != lower {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range layers {
		check(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", d.Name)
		}
	}
}
