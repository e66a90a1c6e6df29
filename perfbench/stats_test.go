package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tail must sort
	}
	return xs
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		value  float64
		pct    float64
		beyond int
	}{
		{100, 90, 90, 10},
		{1000, 990, 99, 10},
		{11, 1, 100.0 / 11, 10},
		{12, 2, 100.0 * 2 / 12, 10},
		{10, 10, 100, 0}, // too few: the maximum, nothing beyond
		{1, 1, 100, 0},
	} {
		v, pct, beyond := tail(seq(tc.n))
		if v != tc.value || math.Abs(pct-tc.pct) > 1e-12 || beyond != tc.beyond {
			t.Errorf("tail(1..%d) = %v, p%v, %d beyond; want %v, p%v, %d", tc.n, v, pct, beyond, tc.value, tc.pct, tc.beyond)
		}
	}
	if v, _, _ := tail(nil); !math.IsNaN(v) {
		t.Errorf("tail(nil) = %v, want NaN", v)
	}
}

func TestBestTailTakesLowestCompleteWindow(t *testing.T) {
	// Three windows of 20: the middle one is the fastest; the trailing
	// partial window of 5 (all fast) is ignored.
	var xs []float64
	for w, base := range []float64{100, 10, 50} {
		for i := range 20 {
			xs = append(xs, base+float64(i)+float64(w)/10)
		}
	}
	xs = append(xs, 1, 1, 1, 1, 1)
	v, pct, beyond := bestTail(xs, 20)
	if v != 19.1 || pct != 50 || beyond != 10 {
		t.Errorf("bestTail = %v, p%v, %d beyond; want 19.1, p50, 10", v, pct, beyond)
	}
	// Shorter than one window: the whole slice is the window.
	if v, _, _ := bestTail(seq(15), 20); v != 5 {
		t.Errorf("bestTail(1..15, 20) = %v, want 5", v)
	}
}

func TestTailCountsTiesAsBeyondByPosition(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = 1
	}
	xs[49], xs[48] = 9, 8
	if v, _, beyond := tail(xs); v != 1 || beyond != 10 {
		t.Errorf("tail = %v with %d beyond, want 1 with 10", v, beyond)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

// The expected values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(4), 1.25, 3.75},
		{seq(2), 0.75, 2.25},
		{[]float64{1.5, 9, 2, 7, 3}, 1.75, 8},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}
