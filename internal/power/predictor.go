// Package power implements the disk power-management mechanisms evaluated in
// the paper (§II): the Simple and Prediction-Based spin-down policies, the
// History-Based and Staggered multi-speed policies, plus a Default (no
// management) policy and the Oracle upper bound (policy=oracle). A policy
// instance attaches to exactly one disk and drives it through the
// disk.Listener hooks and control methods, scheduling its own timers on the
// shared event engine.
package power

// EWMA is the exponentially-weighted moving-average idle-length predictor
// shared by the Prediction-Based and History-Based policies. The paper's
// prediction strategy "assumes that successive idle periods exhibit similar
// behavior"; the EWMA generalizes last-value prediction (alpha = 1) while
// damping outliers.
type EWMA struct {
	alpha float64
	value float64
	seen  bool
}

// NewEWMA returns a predictor with the given smoothing factor in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	return &EWMA{alpha: alpha}
}

// Observe folds a new observation into the average.
func (e *EWMA) Observe(v float64) {
	if !e.seen {
		e.value = v
		e.seen = true
		return
	}
	e.value = e.alpha*v + (1-e.alpha)*e.value
}

// Predict returns the current prediction and whether any observation has
// been made yet.
func (e *EWMA) Predict() (float64, bool) { return e.value, e.seen }

// Reset clears the history.
func (e *EWMA) Reset() { e.value, e.seen = 0, false }
