package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile, so
// a tail figure never rests on a handful of observations.
const minTail = 10

// percentile returns the nearest-rank q-quantile of samples (0 < q < 1):
// the ceil(q*n)-th smallest value, always one that was measured. It
// fails unless at least minTail samples lie beyond that rank.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 || n-rank < minTail {
		return 0, fmt.Errorf("p%v of %d samples leaves %d beyond it, want at least %d",
			q*100, n, n-rank, minTail)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(data, n=4) computes them (the
// default "exclusive" method), so spreads printed here match the ones
// computed from the same values elsewhere. It needs two samples.
func quartiles(samples []float64) (q1, med, q3 float64, err error) {
	n := len(samples)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), nil
}

// relSpread is the distance between the quartiles as a share of the
// median: the run-to-run noise a bound must exceed.
func relSpread(samples []float64) (float64, error) {
	q1, med, q3, err := quartiles(samples)
	if err != nil {
		return 0, err
	}
	if med == 0 {
		if q1 == q3 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return (q3 - q1) / math.Abs(med), nil
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// exercised).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
