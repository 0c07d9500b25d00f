//go:build linux

package main

import (
	"math"
	"testing"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		want float64
		n    int
		tail float64
	}{
		{99, 24000, 99}, // serve-hot's open phase, were p99 wanted
		{99, 1000, 99},  // exactly ten beyond
		{99, 999, 95},   // 9.99 beyond p99: not enough
		{99, 500, 95},   // serve-cold's open phase
		{95, 24000, 95}, // never above what the workload asks for
		{90, 110, 90},   // lib-heavy: two passes of 55
		{99, 110, 90},
		{99, 50, 75},
		{99, 3, 75}, // nothing qualifies; the lowest is reported
	}
	for _, c := range cases {
		if got := tailPercentile(c.want, c.n); got != c.tail {
			t.Errorf("tailPercentile(%v, %d) = %v, want %v", c.want, c.n, got, c.tail)
		}
		if got := tailPercentile(c.want, c.n); c.n >= 40 && float64(c.n)*(100-got)/100 < 10 {
			t.Errorf("tailPercentile(%v, %d) = %v leaves fewer than ten samples beyond", c.want, c.n, got)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 100: 10, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The driver takes spreads from Python's statistics.quantiles(values, n=4);
// `bench compare` must cut at the same points.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 8}, 3, 6, 9},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput_qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, verdictOK},
		{lower, steady, []float64{115, 114, 116, 115, 115}, verdictWorse},
		{lower, steady, []float64{80, 81, 79, 80, 80}, verdictOK}, // better is never worse
		{higher, steady, []float64{85, 86, 84, 85, 85}, verdictWorse},
		{higher, steady, []float64{115, 114, 116, 115, 115}, verdictOK},
		{lower, steady, []float64{80, 120, 100, 140, 60}, verdictUnresolved},
		{metricSpec{Name: "topk.search_us", Better: "lower"}, steady, steady, verdictNone},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}
