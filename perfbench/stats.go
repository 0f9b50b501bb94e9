package main

import (
	"math"
	"sort"
)

// nearestRank returns the q-quantile (0 < q <= 1) of an ascending slice
// by the nearest-rank method: the ceil(q·n)-th smallest sample. It never
// interpolates, so every reported percentile is a latency that was
// actually observed.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1]
}

// beyond is the number of samples ranked strictly above the q-quantile.
func beyond(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	return n - k
}

// tailQuantiles are the percentiles a timing may report, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// supportedTail is the highest percentile in tailQuantiles that leaves at
// least ten samples beyond it (0 when none does).
func supportedTail(n int) float64 {
	for _, q := range tailQuantiles {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0
}

// median is the middle of xs (mean of the two middle values for even
// counts); it is used for per-repetition aggregates, not latency
// distributions.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// dist is a sorted latency sample set.
type dist struct {
	sorted []float64
}

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{sorted: s}
}

func (d dist) n() int              { return len(d.sorted) }
func (d dist) q(q float64) float64 { return nearestRank(d.sorted, q) }
func (d dist) p50() float64        { return d.q(0.5) }
