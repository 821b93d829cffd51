package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"

	"repro/internal/metrics"
)

// minTailBeyond is how many samples must lie beyond a tail percentile before
// the benchmark prints it; fewer and the percentile is one or two unlucky
// operations, not a tail.
const minTailBeyond = 10

// tailOK reports whether n samples leave at least minTailBeyond of them
// beyond percentile p.
func tailOK(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minTailBeyond
}

// minOpsFor is the smallest sample count tailOK accepts for p.
func minOpsFor(p float64) int {
	return int(math.Ceil(minTailBeyond * 100 / (100 - p)))
}

// sample is a set of per-operation host latencies in milliseconds.
type sample []float64

// pct returns the p-th percentile (linear interpolation between ranks).
func (s sample) pct(p float64) float64 {
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	return metrics.SortedPercentile(sorted, p)
}

// tail returns the p-th percentile, or an error when too few samples lie
// beyond it to make it a tail rather than a handful of operations.
func (s sample) tail(p float64) (float64, error) {
	if !tailOK(len(s), p) {
		return 0, fmt.Errorf("p%g needs %d samples for %d beyond it, have %d", p, minOpsFor(p), minTailBeyond, len(s))
	}
	return s.pct(p), nil
}

// quartiles returns the first quartile, median and third quartile by the
// same rule as Python's statistics.quantiles(vals, n=4) (the "exclusive"
// method), the rule the bounds in BENCHMARK.json are judged by.
func quartiles(vals []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = d[0]
		}
		return v, v, v
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// peakRSSMB is the process's resident-set high-water mark in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
