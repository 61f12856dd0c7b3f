package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3.1, 0.5, 2.2}, 0.5, 2.2, 3.1},
		{[]float64{7, 1}, -0.5, 4, 8.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n   int
		pct float64
		ok  bool
	}{
		{12, 0, false},  // fold-heavy's single round
		{99, 0, false},  // 9.9 beyond p90
		{100, 90, true}, // exactly 10 beyond p90
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		pct, v, ok := tail(seq(c.n))
		if ok != c.ok || pct != c.pct {
			t.Errorf("tail(n=%d) = p%v ok=%v, want p%v ok=%v", c.n, pct, ok, c.pct, c.ok)
			continue
		}
		if ok {
			if beyond := float64(c.n) - v; beyond < minBeyond-1 {
				t.Errorf("tail(n=%d) = %v leaves %v samples beyond", c.n, v, beyond)
			}
		}
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if g := geomean([]float64{1, 4}); !near(g, 2) {
		t.Errorf("geomean = %v, want 2", g)
	}
	if !math.IsNaN(geomean(nil)) {
		t.Error("geomean of nothing should be NaN")
	}
}

func TestSelfTimeSubtractsChildAndClamps(t *testing.T) {
	if s := selfTime(3, 1); s != 2 {
		t.Errorf("selfTime(3, 1) = %v, want 2", s)
	}
	if s := selfTime(1, 1.2); s != 0 {
		t.Errorf("selfTime(1, 1.2) = %v, want 0 (timer noise clamps)", s)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
