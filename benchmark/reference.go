package main

import "time"

// The box this benchmark runs on is a couple of vCPUs of a shared host, and
// it has phases, minutes long and invisible from inside (no steal time), in
// which everything CPU-bound runs a quarter to a third slower: all six paths
// together, one run like the next, so that no statistic over the repetitions
// of a run can see it. Ten runs that straddle a phase change spread 25-40 %
// raw (README, "Run-to-run spread"). What does see it is a fixed piece of
// work timed beside the measurements, so every invocation times refKernel
// before each repetition of every path, takes the median over the run (some
// fifty samples), and reports the CPU-bound end-to-end metrics scaled to a
// box on which the kernel takes refNominal: rates times machineFactor,
// latencies divided by it. The raw medians are printed and written beside
// them.

// refNominal is what refKernel takes on the box this benchmark was written on
// in its usual phase, so that there the factor is about 1 and the reported
// figures read as measured.
const refNominal = 3100 * time.Microsecond

// refSink keeps the kernel's result alive.
var refSink uint64

// refKernel is 3 ms of single-threaded work shaped like a checker's: random
// updates of a thousand-key table, a hash over each value, an allocation per
// new key. A dependent-multiply loop does not see the phases (1.05x); this
// does (1.45x, against 1.3-1.45x for the measured paths).
func refKernel() time.Duration {
	const keys = 1 << 10
	start := time.Now()
	table := make(map[uint64][]byte, keys)
	x, h := uint64(1), uint64(14695981039346656037)
	for i := 0; i < 40_000; i++ {
		x += 0x9e3779b97f4a7c15
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		k := (z ^ (z >> 31)) % keys
		v := table[k]
		if v == nil {
			v = make([]byte, 48)
		}
		v[i%48] = byte(z)
		for _, c := range v {
			h = (h ^ uint64(c)) * 1099511628211
		}
		table[k] = v
	}
	refSink += h
	return time.Since(start)
}

// unscaled are the end-to-end metrics reported as measured: they are bound
// by the scheduler's 1 ms wall-clock timeouts, not by the CPU, and move a
// third as much as the kernel does (a slope of 0.3 against 0.7-0.9 for the
// rest, sixty runs across a phase change), so scaling them adds the kernel's
// movement instead of removing the box's.
var unscaled = map[string]bool{
	"setup_s":              true,
	"lock_schedules_per_s": true,
	"find_bugs_s":          true,
}

// scaleFor returns what a raw value of the named end-to-end metric is
// multiplied by to give the reported one.
func scaleFor(d metricDef, factor float64) float64 {
	switch {
	case unscaled[d.Name] || factor == 0:
		return 1
	case d.Better == higher:
		return factor
	}
	return 1 / factor
}
