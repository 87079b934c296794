package main

import (
	"math"
	"sort"
	"time"
)

// latencies collects per-request durations of one phase.
type latencies []time.Duration

// quantile returns the q-quantile (0..1) by the nearest-rank rule, in
// milliseconds, and the number of samples strictly above it.
func (l latencies) quantile(q float64) (ms float64, beyond int) {
	if len(l) == 0 {
		return 0, 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(s[rank]) / 1e6, len(s) - 1 - rank
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
