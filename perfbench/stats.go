package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between closest ranks (the "type 7" estimator of R and
// NumPy). It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	h := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the same
// estimator as Python's statistics.quantiles(xs, n=4) (method
// "exclusive"), so spreads computed here match the ones a Python harness
// computes from the same values. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		if len(xs) == 1 {
			return xs[0], xs[0]
		}
		return math.NaN(), math.NaN()
	}
	s := sorted(xs)
	const n = 4
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// iqr returns the interquartile range q3 - q1 of xs.
func iqr(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return q3 - q1
}
