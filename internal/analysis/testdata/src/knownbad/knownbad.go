// Package knownbad is the multichecker integration fixture: it carries
// violations for the determinism and allocation analyzers, plus one
// suppressed line, so the driver test can assert the full
// find-filter-format pipeline.
package knownbad

import (
	"time"

	"sdds/internal/sim"
)

type node struct {
	eng   *sim.Engine
	count int
}

// detflow: wall clock in (test-scoped) simulation code.
func stamp() int64 {
	return time.Now().UnixNano()
}

// hotalloc: capturing closure on the fire-and-forget path.
func (n *node) arm() {
	n.eng.ScheduleFunc(1, "tick", func(now sim.Time) { n.count++ })
}

// detflow: reduction ordered by map iteration.
func reduce(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

// Suppressed: must not reach the driver's output.
func suppressed(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v //sddsvet:ignore detflow -- fixture: proves end-to-end suppression
	}
	return sum
}
