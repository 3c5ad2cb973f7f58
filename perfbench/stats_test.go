package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}, {0.9, 4.6},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of an empty sample = %v, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{4, 3, 2, 1})
	if s.N != 4 || s.Median != 2.5 || s.Q1 != 1.75 || s.Q3 != 3.25 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSupports(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {20, 0.5, true}, {19, 0.5, false},
	} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestMBps(t *testing.T) {
	if got := mbps(3e6, 2*time.Second); got != 1.5 {
		t.Errorf("mbps = %v, want 1.5", got)
	}
	if got := mbps(1, 0); got != 0 {
		t.Errorf("mbps over no time = %v, want 0", got)
	}
}

func TestStealShare(t *testing.T) {
	a := []int64{10, 0, 10, 70, 0, 0, 0, 10}
	b := []int64{20, 0, 20, 140, 0, 0, 0, 20}
	if got, ok := stealShare(a, b); !ok || got != 0.1 {
		t.Errorf("stealShare = %v, %v; want 0.1, true", got, ok)
	}
	if _, ok := stealShare(nil, b); ok {
		t.Error("stealShare without a first reading reported a share")
	}
}
