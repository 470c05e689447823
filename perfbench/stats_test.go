package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Expected quartiles are those of Python's statistics.quantiles(xs, n=4),
// the estimator the benchmark's spread checks use.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 2}, 1.4375, 7.625},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{7, 7}, 7, 7},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 90},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
		if got := iqr(tc.xs); !near(got, tc.q3-tc.q1) {
			t.Errorf("iqr(%v) = %v, want %v", tc.xs, got, tc.q3-tc.q1)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {95, 9.55}, {100, 10},
	} {
		if got := percentile(xs, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{3.5, 1.25, 9, 2}, 90); !near(got, 7.35) {
		t.Errorf("percentile p90 = %v, want 7.35", got)
	}
	if got := median(xs); !near(got, 5.5) {
		t.Errorf("median(1..10) = %v, want 5.5", got)
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median(4,1,3) = %v, want 3", got)
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("empty sample statistics should be NaN")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		{Trace: "a", Name: "root", Start: 0, End: 10 * ms},
		{Trace: "a", Name: "x", Parent: "root", Start: 1 * ms, End: 3 * ms},
		{Trace: "a", Name: "y", Parent: "root", Start: 2 * ms, End: 4 * ms},
		{Trace: "a", Name: "z", Parent: "y", Start: 2 * ms, End: 3 * ms},
		// Another trace's child must not count against trace a's root.
		{Trace: "b", Name: "root", Start: 0, End: 5 * ms},
		{Trace: "b", Name: "x", Parent: "root", Start: 4 * ms, End: 9 * ms},
	}
	self := selfTimesMs(spans)
	want := map[string][]float64{"root": {7, 4}, "x": {2, 5}, "y": {1}, "z": {1}}
	for name, w := range want {
		got := self[name]
		if len(got) != len(w) {
			t.Fatalf("%s: self times %v, want %v", name, got, w)
		}
		sum, wsum := 0.0, 0.0
		for i := range got {
			sum, wsum = sum+got[i], wsum+w[i]
		}
		if !near(sum, wsum) {
			t.Errorf("%s: self times %v, want %v", name, got, w)
		}
	}
	if got := covered([][2]int64{{0, 10}, {5, 15}, {20, 25}}); got != 20 {
		t.Errorf("covered = %d, want 20", got)
	}
}
