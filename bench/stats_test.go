package main

import (
	"math"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		name           string
		xs             []float64
		median, q1, q3 float64
	}{
		{"one", []float64{3}, 3, 3, 3},
		{"two", []float64{2, 1}, 1.5, 0.75, 2.25},
		{"odd", []float64{5, 1, 3, 2, 4}, 3, 1.5, 4.5},
		{"even", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{"ties", []float64{2, 2, 2, 2}, 2, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := median(tc.xs); got != tc.median {
				t.Errorf("median = %v, want %v", got, tc.median)
			}
			q1, q3 := quartiles(tc.xs)
			if q1 != tc.q1 || q3 != tc.q3 {
				t.Errorf("quartiles = %v, %v, want %v, %v", q1, q3, tc.q1, tc.q3)
			}
		})
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	for _, tc := range []struct{ p, want float64 }{{0, 0}, {50, 50}, {90, 90}, {100, 100}, {12.5, 12.5}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n, p int
		ok   bool
	}{{10, 0, false}, {11, 9, true}, {100, 90, true}, {168, 94, true}, {1000, 99, true}} {
		p, ok := tailPercentile(tc.n)
		if ok != tc.ok || (ok && p != tc.p) {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", tc.n, p, ok, tc.p, tc.ok)
		}
	}
	s := summarize(xs)
	if s.N != 101 || s.TailP != 90 || s.TailValue != 90 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestBoundChecks(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.1}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.1}
	for _, tc := range []struct {
		name       string
		m          metricDef
		base, head float64
		worse      bool
	}{
		{"within relative bound", lower, 10, 10.9, false},
		{"past relative bound", lower, 10, 11.1, true},
		{"improvement", lower, 10, 5, false},
		{"higher is better, drop", higher, 10, 8.9, true},
		{"higher is better, rise", higher, 10, 20, false},
		{"setup within absolute floor", setup, 0.01, 0.055, false},
		{"setup past absolute floor", setup, 0.01, 0.07, true},
		{"setup past relative bound", setup, 2, 2.3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := worse(tc.m, tc.base, tc.head); got != tc.worse {
				t.Errorf("worse(%v, %v) = %v", tc.base, tc.head, got)
			}
		})
	}
}

func TestCompareRuns(t *testing.T) {
	m := metricDef{Name: "wall_s", Better: "lower", Bound: 0.1}
	steady := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		m          metricDef
		base, head []float64
		want       string
	}{
		{"too few pairs", m, steady[:5], shift(steady[:5], -5), outcomeTooFew},
		{"clear gain", m, steady, shift(steady, -2), outcomeGain},
		{"gain inside parent spread is not a gain", m, steady, shift(steady, -0.05), outcomeUnchanged},
		{"regression", m, steady, shift(steady, 2), outcomeRegression},
		{"unchanged", m, steady, steady, outcomeUnchanged},
		{"noisy parent is unresolved", m, []float64{5, 15, 5, 15, 5, 15, 5, 15, 5, 15}, shift(steady, 1), outcomeUnresolved},
		{"per-layer metrics never regress", metricDef{Name: "x", Better: "lower"}, steady, shift(steady, 5), outcomeNoGain},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := compareRuns(tc.m, tc.base, tc.head); got.Outcome != tc.want {
				t.Errorf("compareRuns = %v, want %s", got, tc.want)
			}
		})
	}
}
