package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// tailLadder is the set of percentiles a tail latency is reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest ladder percentile with at least ten
// samples beyond it, so the reported tail rests on more than a handful
// of ops.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile of xs by linear interpolation
// between order statistics.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// mad is the median absolute deviation from the median.
func mad(xs []float64) float64 {
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// addLatencies reports the p50 and tail of per-op latencies under
// prefix (prefix_p50, prefix_tail), with the sample count.
func addLatencies(rep *report, prefix string, ms []float64) {
	n := len(ms)
	p := tailPercentile(n)
	rep.add(prefix+"_p50", median(ms), "ms", fmt.Sprintf("p50 of %d samples", n))
	rep.add(prefix+"_tail", percentile(ms, p), "ms",
		fmt.Sprintf("p%g of %d samples, %.0f beyond", p, n, float64(n)*(100-p)/100))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
