// Package simtrans is the cross-package acceptance fixture: simulation
// code that reaches the wall clock only through another package. Nothing
// here is an intrinsic cause — only the summary engine's transitive pass
// can flag it, at the boundary call, and the diagnostic must carry the
// full call chain down to the time.Now leaf.
package simtrans

import helper "sdds/internal/analysis/detflow/testdata/src/simtranshelper"

// Stamp reaches time.Now one package away.
func Stamp() int64 {
	return helper.Wallclock() // want `wall-clock reached from deterministic code: simtrans\.Stamp → simtranshelper\.Wallclock → time\.Now`
}

// UsesPure calls an effect-free helper: allowed.
func UsesPure(n int) int {
	return helper.Pure(n)
}
