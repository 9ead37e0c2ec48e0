package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending-sorted latency slice; zero for an empty slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// medianDuration sorts d in place and returns its median.
func medianDuration(d []time.Duration) time.Duration {
	return percentile(sortDurations(d), 0.5)
}

func sumDurations(d []time.Duration) time.Duration {
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return s
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// medianFloat returns the median of xs without reordering the caller's
// slice; zero for an empty slice.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the acceptance rule for this benchmark is stated in. It needs at least
// two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// ratio is a/b for a count or duration b, or zero when b is not positive.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
