package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The expected values are Python's statistics module on the same data:
// quantiles(xs, n=4, method="inclusive") for the quartiles,
// quantiles(xs, n=100, method="inclusive")[98] for p99, and median(xs).
func TestQuantilesMatchPython(t *testing.T) {
	cases := []struct {
		xs               []float64
		q1, q3, p99, med float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 3.25, 7.75, 9.91, 5.5},
		{[]float64{3, 1, 4, 1, 5}, 1.0, 4.0, 4.96, 3},
		{[]float64{2.5, 7.0}, 3.625, 5.875, 6.955, 4.75},
		{[]float64{110, 20, 30, 40, 50, 60, 70, 80, 90, 100, 10}, 35, 85, 109, 60},
	}
	for _, c := range cases {
		if q1, q3 := quantile(c.xs, 0.25), quantile(c.xs, 0.75); !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
		if p := quantile(c.xs, 0.99); !near(p, c.p99) {
			t.Errorf("p99(%v) = %v, want %v", c.xs, p, c.p99)
		}
		if m := median(c.xs); !near(m, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.med)
		}
	}
}

func TestQuantileEdges(t *testing.T) {
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	xs := []float64{4, 2, 9}
	if quantile(xs, 0) != 2 || quantile(xs, 1) != 9 || quantile([]float64{7}, 0.99) != 7 {
		t.Error("quantile endpoints wrong")
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}
