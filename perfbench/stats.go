package main

import (
	"fmt"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks. xs need not be sorted and is
// not modified. An empty sample has no quantile; it returns 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// supports reports whether n samples leave at least ten beyond the
// q-quantile, the least a tail percentile needs before it is reported.
func supports(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

// summary is a sample's median, quartiles and size, the spread the
// report prints beside every metric.
type summary struct {
	N              int
	Q1, Median, Q3 float64
}

func summarize(xs []float64) summary {
	return summary{N: len(xs), Q1: quantile(xs, 0.25), Median: median(xs), Q3: quantile(xs, 0.75)}
}

func (s summary) String() string {
	return fmt.Sprintf("median %.4g  q1 %.4g  q3 %.4g  n=%d", s.Median, s.Q1, s.Q3, s.N)
}

// mbps converts bytes moved in d to MB/s (1 MB = 1e6 bytes).
func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
