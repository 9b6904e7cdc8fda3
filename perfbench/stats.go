package main

import (
	"math"
	"slices"
)

// percentile returns the q-quantile of xs, and whether the reporting rule
// allows it: the median always; any other percentile only from 40 samples
// on, and only with at least 10 samples beyond it — below that the "tail"
// would be a handful of points. The median of an even count averages the
// two middle samples; other percentiles take the nearest rank.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if q == 0.5 && n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2, true
	}
	k := int(math.Ceil(q*float64(n))) - 1
	k = max(0, min(k, n-1))
	if q != 0.5 && (n < 40 || n-1-k < 10) {
		return s[k], false
	}
	return s[k], true
}

// median is the reportable 50th percentile (0 for no samples).
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// middleMean is the mean of the middle half of xs (its interquartile mean),
// with the quarters rounded down so that small samples keep more than half.
// op_ms_p50 is the middle mean of the distinct ops' median host times: the
// ops differ by an order of magnitude, and a plain median over a few of them
// jumped between neighbouring ops from run to run (a quartile spread of up
// to 0.24 over ten runs, against 0.1 for the same runs' rate).
func middleMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := len(s) / 4
	sum := 0.0
	for _, x := range s[q : len(s)-q] {
		sum += x
	}
	return sum / float64(len(s)-2*q)
}

// geomean returns the geometric mean of positive values (0 if any is not).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
