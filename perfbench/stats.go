package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to count as measured rather than guessed.
const minBeyond = 10

// tailLadder lists the candidate tail percentiles, highest first.
var tailLadder = []float64{99.9, 99, 95, 90}

// quantile returns the q-quantile (0..1) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail picks the highest percentile of tailLadder that still has at
// least minBeyond samples above it and returns its value.  ok is false
// when no ladder rung qualifies.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := float64(len(xs))
	for _, p := range tailLadder {
		// The tolerance absorbs float error, e.g. 100 * (100-90)/100.
		if n*(100-p)/100 >= minBeyond-1e-9 {
			return p, quantile(xs, p/100), true
		}
	}
	return 0, 0, false
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), the rule run-to-run spread is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		// statistics.quantiles, method="exclusive": m = n+1, point
		// j = i*m/4 with remainder delta.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// geomean is the geometric mean of positive values (NaN when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// selfTime is a layer's own time: its span minus the child span it
// encloses, clamped at zero so timer noise on a layer that costs
// nothing never reports negative work.
func selfTime(span, child float64) float64 {
	return math.Max(0, span-child)
}
