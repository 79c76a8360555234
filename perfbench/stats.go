package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
// An empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the latency tail the benchmark reports: the highest percentile,
// up to the 99th, that has at least ten samples beyond it — the 99th from
// 1000 samples on. Below 20 samples it is the largest sample.
func tail(xs []float64) float64 {
	n := float64(len(xs))
	if n < 20 {
		return quantile(xs, 1)
	}
	return quantile(xs, math.Min(0.99, 1-10/n))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
