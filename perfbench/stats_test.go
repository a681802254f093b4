package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty percentile is not NaN")
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestBeyondCountsTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 90, 10}, {99, 90, 9}, {1000, 99, 10}, {999, 99, 9}, {1000, 90, 100}, {10, 50, 5},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestHighestPercentileWithTenBeyond(t *testing.T) {
	ps := []float64{50, 90, 99, 99.9}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n, ps); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
