package main

import (
	"math"
	"slices"
)

// tailMin is the number of samples that must lie beyond the reported tail
// value: the tail is the highest percentile still backed by this many
// slower samples, so it never rests on one or two outliers.
const tailMin = 10

// tail returns the highest-percentile sample of xs that has at least
// tailMin samples strictly beyond it in sorted order, the percentile it
// represents, and how many samples lie beyond it. With too few samples to
// leave tailMin beyond any of them, it returns the maximum and the count
// of samples beyond it is 0.
func tail(xs []float64) (value, pct float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0, 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	k := n - 1 - tailMin
	if k < 0 {
		return s[n-1], 100, 0
	}
	return s[k], 100 * float64(k+1) / float64(n), n - 1 - k
}

// median returns the median of xs (the mean of the middle two for an even
// count), NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so spreads computed here match the ones a Python checker computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0] // Python raises here; a single run has no spread
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
