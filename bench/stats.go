package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of values
// by the "exclusive" method (the one Python's statistics.quantiles(n=4)
// uses), so spreads computed here agree with the ones the benchmark driver
// computes. One value is its own three quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, med, _ := quartiles(values)
	return med
}

// percentile is the nearest-rank percentile of values (p in (0, 100]).
func percentile(values []float64, p float64) float64 {
	s := sortedCopy(values)
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailLadder lists the percentiles a timing may be reported at, in tenths of
// a percent so that the sample arithmetic below is exact.
var tailLadder = []int{500, 900, 950, 990, 999}

// highestPercentile picks the tail a timing is reported at beside its
// median: the highest rung of tailLadder that still has at least ten of the
// n samples beyond it. Fewer than twenty samples support the median only.
func highestPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}

// tail reports values at want, or at the highest percentile the sample count
// supports when that is lower.
func tail(values []float64, want float64) float64 {
	return percentile(values, math.Min(want, highestPercentile(len(values))))
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
