package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: p90 needs 100 samples, p99 needs 1000.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs need not be sorted; it is not modified. NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

// rank is the 0-based index of the nearest-rank p-th percentile among n
// sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps p*n that is integral in exact arithmetic (90% of
	// 1000) from rounding up a whole rank in floating point.
	r := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// beyond is how many of n samples lie strictly past the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// highestPercentile returns the highest of the candidate percentiles
// (ascending) with at least minTail samples beyond it among n samples,
// or 0 when none has.
func highestPercentile(n int, candidates []float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if beyond(n, p) >= minTail {
			best = p
		}
	}
	return best
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// goodValues returns pick over the correctly answered samples.
func goodValues(samples []sample, pick func(*sample) float64) []float64 {
	var xs []float64
	for i := range samples {
		if samples[i].good {
			xs = append(xs, pick(&samples[i]))
		}
	}
	return xs
}

// roundsPercentile is the median over rounds of each round's p-th
// percentile of pick, when every round has minTail samples beyond it;
// otherwise the p-th percentile of all rounds pooled. It also returns
// the sample count of the smallest set the percentile was taken over.
func roundsPercentile(rounds [][]sample, p float64, pick func(*sample) float64) (float64, int) {
	var per, pooled []float64
	least := -1
	for _, r := range rounds {
		xs := goodValues(r, pick)
		pooled = append(pooled, xs...)
		per = append(per, percentile(xs, p))
		if least < 0 || len(xs) < least {
			least = len(xs)
		}
	}
	if beyond(least, p) >= minTail {
		return median(per), least
	}
	return percentile(pooled, p), len(pooled)
}
