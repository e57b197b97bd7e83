package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

func TestMedianMADGeomean(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name                 string
		xs                   []float64
		median, mad, geomean float64
	}{
		{"empty", nil, nan, nan, nan},
		{"one", []float64{7}, 7, 0, 7},
		{"odd unsorted", []float64{9, 1, 5}, 5, 4, math.Cbrt(45)},
		{"even", []float64{4, 1, 3, 2}, 2.5, 1, math.Pow(24, 0.25)},
		{"outlier", []float64{10, 10, 10, 10, 1000}, 10, 0, math.Pow(1e7, 0.2)},
		{"zero kills geomean", []float64{0, 4}, 2, 2, nan},
		{"negative kills geomean", []float64{-1, 4}, 1.5, 2.5, nan},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.median) {
			t.Errorf("%s: median = %v, want %v", c.name, got, c.median)
		}
		if got := mad(c.xs); !near(got, c.mad) {
			t.Errorf("%s: mad = %v, want %v", c.name, got, c.mad)
		}
		if got := geomean(c.xs); !near(got, c.geomean) {
			t.Errorf("%s: geomean = %v, want %v", c.name, got, c.geomean)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{4, 8, 6, 2})
	want := sample{N: 4, Median: 5, Min: 2, Max: 8, MAD: 2}
	if s != want {
		t.Errorf("summarize = %+v, want %+v", s, want)
	}
	if s := summarize(nil); s != (sample{}) {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	cases := []struct {
		name string
		n    int
		p    float64
		want float64 // 0 = must be refused
	}{
		{"p90 of 100 keeps 10 beyond", 100, 90, 90},
		{"p90 of 99 keeps 9.9 beyond", 99, 90, 0},
		{"p99 of 1000", 1000, 99, 990},
		{"p99 of 999", 999, 99, 0},
		{"p99 of 100", 100, 99, 0},
		{"p50 of 20", 20, 50, 10},
		{"p50 of 19", 19, 50, 0},
		{"p10 of 100 keeps 10 below", 100, 10, 10},
		{"p10 of 99", 99, 10, 0},
		{"p0 is not a percentile", 1000, 0, 0},
		{"p100 is not a percentile", 1000, 100, 0},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.p)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("%s: got %v, want a refusal", c.name, got)
		case c.want != 0 && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.want != 0 && got != c.want:
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSpread(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64 // < 0 = refused
	}{
		{[]float64{100, 100, 100}, 0},
		{[]float64{90, 100, 110}, 0.2},
		{[]float64{90, 100, 1000}, 0.2}, // one outlier of three does not widen it
		{[]float64{-90, -100, -110}, 0.2},
		{[]float64{100}, -1},
		{[]float64{-1, 0, 1}, -1}, // no share of a zero median
	}
	for _, c := range cases {
		got, ok := spread(c.xs)
		if (c.want < 0) == ok || (ok && !near(got, c.want)) {
			t.Errorf("spread(%v) = %v, %v; want %v", c.xs, got, ok, c.want)
		}
	}
}

func TestRoundSig(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{1234567, 1235000}, {0.00123456, 0.001235}, {-98765, -98770}, {1, 1}, {0, 0}, {999.96, 1000},
	}
	for _, c := range cases {
		if got := roundSig(c.in, 4); !near(got, c.want) {
			t.Errorf("roundSig(%v, 4) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "rep", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", Parent: 0, StartNS: 10, EndNS: 40},
		{Name: "a", Parent: 0, StartNS: 30, EndNS: 60},  // overlaps the first: union 10..60
		{Name: "b", Parent: 0, StartNS: 90, EndNS: 120}, // clipped to the parent: 90..100
		{Name: "leaf", Parent: 1, StartNS: 15, EndNS: 20},
	}}
	got := tr.selfTimes()
	want := map[string]int64{"rep": 100 - 50 - 10, "a": (30 - 5) + 30, "b": 30, "leaf": 5}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, got[name], w)
		}
	}
	var nilTracer *tracer
	if end, id := nilTracer.begin("x", -1, 0); id != -1 {
		t.Errorf("nil tracer returned span %d", id)
	} else {
		end()
	}
}
