package main

import (
	"math"
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie beyond a percentile before the
// harness reports it: below that a "p99" is one or two outliers, not a tail.
const tailMinBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks. xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailEligible reports whether n samples leave at least tailMinBeyond of
// them beyond the p-th percentile.
func tailEligible(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= tailMinBeyond
}

// highestTail returns the highest of the candidate percentiles that n
// samples support, or 0 when none is eligible.
func highestTail(n int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if tailEligible(n, p) && p > best {
			best = p
		}
	}
	return best
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median — the run-to-run spread the compare mode and the
// driver judge a bound against. It follows Python's
// statistics.quantiles(xs, n=4) (exclusive method) so both sides agree. With
// fewer than four values that method extrapolates beyond the data (two values
// 10% apart would read as a 15% spread), so the full range is used instead.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if med := median(s); len(s) < 4 && med != 0 {
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
