package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// timing is reported as its median and the highest percentile with at
// least ten samples beyond it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted values. It
// fails unless at least minBeyond samples rank above it, so p99 needs 1000
// samples and p50 needs 20.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want %d", p, n, n-rank, minBeyond)
	}
	return sorted[rank-1], nil
}

// median returns the middle of values (the mean of the middle two for an
// even count), as Python's statistics.median does.
func median(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of values by the
// "exclusive" method of Python's statistics.quantiles(values, n=4).
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var t float64
	for _, v := range values {
		t += v
	}
	return t / float64(len(values))
}
