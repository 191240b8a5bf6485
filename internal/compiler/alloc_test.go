package compiler

import (
	"runtime"
	"testing"

	"sdds/internal/workloads"
)

// TestCompileAllocsIndependentOfScale pins the compile pass's allocation
// shape: slack analysis streams the instances, the accesses live in one
// slab and their signatures in one word array, so scaling an application's
// trip counts, and with them its access count, adds no allocation.
func TestCompileAllocsIndependentOfScale(t *testing.T) {
	// The process's first collection allocates its mark workers; run it
	// before measuring so it cannot land inside one scale's window.
	runtime.GC()
	opts := DefaultOptions(32)
	for _, spec := range workloads.All() {
		var allocs [2]float64
		for i, scale := range []float64{0.02, 0.15} {
			p := spec.Build(scale)
			allocs[i] = testing.AllocsPerRun(3, func() {
				if _, err := Compile(p, opts); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: Compile made %v allocations at scale 0.02 and %v at 0.15, want equal", spec.Name, allocs[0], allocs[1])
		}
	}
}
