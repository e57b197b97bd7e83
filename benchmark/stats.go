package main

import (
	"fmt"
	"math"
	"sort"
)

// sample is the summary printed beside every reported number: the median of
// n repetitions with its extremes and the median absolute deviation.
type sample struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	MAD    float64 `json:"mad"`
}

func summarize(xs []float64) sample {
	if len(xs) == 0 {
		return sample{}
	}
	s := sorted(xs)
	return sample{N: len(s), Median: medianSorted(s), Min: s[0], Max: s[len(s)-1], MAD: mad(xs)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// median returns the middle value (mean of the two middle values for an
// even count), NaN for no samples.
func median(xs []float64) float64 { return medianSorted(sorted(xs)) }

// mad is the median absolute deviation from the median.
func mad(xs []float64) float64 {
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

// geomean is the geometric mean; NaN for no samples or any value <= 0 (a
// rate of zero means the cell did not run, which must not average away).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// minTail is how many samples must lie beyond a reported percentile: with
// fewer, the figure is one outlier's value, not a property of the system.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) by nearest rank. It
// refuses a percentile with fewer than minTail samples at or beyond it on
// its tail side (above it for p >= 50, below it otherwise).
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of (0,100)", p)
	}
	n := len(xs)
	tail := float64(n) * (100 - p) / 100
	if p < 50 {
		tail = float64(n) * p / 100
	}
	if tail < minTail {
		return 0, fmt.Errorf("p%v of %d samples leaves %.1f beyond it, need %d", p, n, tail, minTail)
	}
	s := sorted(xs)
	rank := int(math.Ceil(float64(n) * p / 100))
	return s[rank-1], nil
}

// spread estimates a sample's interquartile range as a share of its median,
// the figure the driver judges run-to-run steadiness by. It uses twice the
// MAD (for a normal sample that is the interquartile range) because the MAD
// is still meaningful for the three to five repetitions one run has, where a
// quartile is just the minimum or the maximum. It needs two samples.
func spread(xs []float64) (float64, bool) {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0, false
	}
	return math.Abs(2 * mad(xs) / m), true
}

// roundSig rounds v to n significant digits.
func roundSig(v float64, n int) float64 {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	scale := math.Pow(10, float64(n)-math.Ceil(math.Log10(math.Abs(v))))
	return math.Round(v*scale) / scale
}
