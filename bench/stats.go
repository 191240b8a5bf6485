package main

import (
	"fmt"
	"math"
	"sort"
)

// setupAbsFloor is the absolute slack setup_s gets on top of its relative
// bound: set-up takes milliseconds, where scheduler jitter alone can move a
// median by more than a tenth.
const setupAbsFloor = 0.05

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the middle two for even n); NaN
// for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the exclusive method
// of Python's statistics.quantiles(xs, n=4), the rule the spread checks use.
// One sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// percentile interpolates linearly between closest ranks (p in [0, 100]).
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailPercentile is the highest whole percentile with at least ten samples
// beyond it; ok is false below 11 samples.
func tailPercentile(n int) (p int, ok bool) {
	p = int(math.Floor(100 * (1 - 10/float64(n))))
	return p, n >= 11 && p > 0
}

// timing summarizes one measured quantity across samples.
type timing struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailP is the highest percentile with ten samples beyond it (0 when n
	// is too small) and TailValue its value.
	TailP     int     `json:"tail_p,omitempty"`
	TailValue float64 `json:"tail_value,omitempty"`
}

func summarize(xs []float64) timing {
	t := timing{N: len(xs), Median: median(xs)}
	t.Q1, t.Q3 = quartiles(xs)
	if p, ok := tailPercentile(len(xs)); ok {
		t.TailP, t.TailValue = p, percentile(xs, float64(p))
	}
	return t
}

// worse reports whether head is worse than base by more than the metric's
// bound: relative for every metric, relative-or-absolute for setup_s.
func worse(m metricDef, base, head float64) bool {
	allowed := m.Bound * math.Abs(base)
	if m.Name == "setup_s" && allowed < setupAbsFloor {
		allowed = setupAbsFloor
	}
	if m.Better == "higher" {
		return head < base-allowed
	}
	return head > base+allowed
}

// better reports whether a beats b in the metric's direction.
func better(m metricDef, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// verdict is the outcome of comparing one metric on one workload between a
// parent (base) and a change (head), by the rule for measuring in a small
// sandbox: at least ten alternating pairs; a gain needs nine tenths of the
// pairs won and a median gap wider than the parent's interquartile range; a
// bounded metric whose parent spread exceeds its bound is unresolved unless
// every head run beats every base run. Per-layer metrics carry no bound, so
// they can show a gain but never a regression.
type verdict struct {
	Pairs      int
	Wins       int
	BaseMedian float64
	HeadMedian float64
	BaseSpread float64
	Outcome    string
}

// Outcomes of compare.
const (
	outcomeGain       = "gain"
	outcomeRegression = "regression"
	outcomeUnchanged  = "no regression"
	outcomeUnresolved = "unresolved"
	outcomeTooFew     = "too few pairs"
	outcomeNoGain     = "no gain"
)

// minPairs is the fewest alternating pairs compare draws a conclusion from.
const minPairs = 10

func compareRuns(m metricDef, base, head []float64) verdict {
	n := len(base)
	if len(head) < n {
		n = len(head)
	}
	v := verdict{Pairs: n, BaseMedian: median(base), HeadMedian: median(head), BaseSpread: spread(base)}
	for i := 0; i < n; i++ {
		if better(m, head[i], base[i]) {
			v.Wins++
		}
	}
	q1, q3 := quartiles(base)
	switch {
	case n < minPairs:
		v.Outcome = outcomeTooFew
	case v.Wins*10 >= 9*n && math.Abs(v.HeadMedian-v.BaseMedian) > q3-q1 && better(m, v.HeadMedian, v.BaseMedian):
		v.Outcome = outcomeGain
	case m.Bound == 0:
		v.Outcome = outcomeNoGain
	case v.BaseSpread > m.Bound && !dominates(m, head, base):
		v.Outcome = outcomeUnresolved
	case worse(m, v.BaseMedian, v.HeadMedian):
		v.Outcome = outcomeRegression
	default:
		v.Outcome = outcomeUnchanged
	}
	return v
}

// dominates reports whether every a beats every b.
func dominates(m metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(m, x, y) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

func (v verdict) String() string {
	return fmt.Sprintf("%-14s pairs=%d wins=%d base=%.6g head=%.6g base_spread=%.3f",
		v.Outcome, v.Pairs, v.Wins, v.BaseMedian, v.HeadMedian, v.BaseSpread)
}
