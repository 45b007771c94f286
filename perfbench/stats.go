package main

import (
	"math"
	"sort"
)

// tailPercentiles are the percentiles a timing may report beyond its
// median, lowest first. summarize picks the highest one that still leaves
// at least minBeyond samples above it.
var tailPercentiles = []float64{90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// summary is one metric as the report prints it: the median of its
// samples, the sample count, and — when there are enough samples — the
// highest tail percentile with at least minBeyond samples beyond it.
type summary struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	N       int     `json:"n"`
	TailP   float64 `json:"tail_p,omitempty"`
	TailVal float64 `json:"tail_value,omitempty"`
}

// median returns the middle sample (the mean of the two middle samples for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest of tailPercentiles whose nearest-rank value
// leaves at least minBeyond samples above it; ok is false when even the
// lowest percentile does not.
func tail(xs []float64) (p, v float64, ok bool) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, q := range tailPercentiles {
		// The epsilon keeps q·n/100 from rounding up past an exact rank.
		rank := int(math.Ceil(q*float64(n)/100 - 1e-9))
		if rank < 1 || n-rank < minBeyond {
			break
		}
		p, v, ok = q, s[rank-1], true
	}
	return p, v, ok
}

// summarize reduces a metric's samples to its reported summary.
func summarize(xs []float64, unit string) summary {
	s := summary{Value: median(xs), Unit: unit, N: len(xs)}
	if p, v, ok := tail(xs); ok {
		s.TailP, s.TailVal = p, v
	}
	return s
}
