package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to be supported by the sample.
const tailBeyond = 10

// dist summarizes one timing distribution by the percentile rule: the
// median, the highest percentile with at least tailBeyond samples
// beyond it (never below the median), which percentile that is, and
// the sample count.
type dist struct {
	P50     float64
	Tail    float64
	TailPct float64
	N       int
}

// tailPercentile is the percentile the rule supports for n samples:
// 100*(1 - tailBeyond/n), floored at 50 so the tail never reads below
// the median. With fewer than 2*tailBeyond samples it is the median.
func tailPercentile(n int) float64 {
	if n <= 0 {
		return 50
	}
	return math.Max(50, 100*(1-float64(tailBeyond)/float64(n)))
}

// percentile returns the p-th percentile (0..100) of sorted xs by
// linear interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// summarize applies the percentile rule to xs (which it sorts).
func summarize(xs []float64) dist {
	sort.Float64s(xs)
	q := tailPercentile(len(xs))
	return dist{P50: percentile(xs, 50), Tail: percentile(xs, q), TailPct: q, N: len(xs)}
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}
