// Package all registers the complete sddsvet analyzer suite, giving the
// multichecker binary and the integration tests one shared list.
package all

import (
	"sdds/internal/analysis"
	"sdds/internal/analysis/detflow"
	"sdds/internal/analysis/eventretain"
	"sdds/internal/analysis/hotalloc"
	"sdds/internal/analysis/locksafe"
)

// Analyzers is the full suite in reporting order.
var Analyzers = []*analysis.Analyzer{
	detflow.Analyzer,
	hotalloc.Analyzer,
	eventretain.Analyzer,
	locksafe.Analyzer,
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}
