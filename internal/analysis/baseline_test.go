package analysis_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdds/internal/analysis"
)

// TestBaselineRoundTrip writes findings as a baseline, loads it back, and
// applies it: matched findings are marked baselined (multiset semantics —
// two identical keys tolerate exactly two findings), unmatched findings
// stay new, and entries that matched nothing come back as stale.
func TestBaselineRoundTrip(t *testing.T) {
	recorded := []analysis.Finding{
		{File: "a.go", Line: 1, Col: 1, Analyzer: "hotalloc", Message: "m1"},
		{File: "a.go", Line: 9, Col: 1, Analyzer: "hotalloc", Message: "m1"}, // same key, second copy
		{File: "b.go", Line: 2, Col: 1, Analyzer: "eventretain", Message: "m2"},
	}
	var buf bytes.Buffer
	if err := analysis.WriteBaseline(&buf, recorded); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "b.baseline")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := analysis.LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}

	// Current run: one of the two m1 copies is gone, m2 still present, and
	// a brand-new finding appeared.
	current := []analysis.Finding{
		{File: "a.go", Line: 5, Col: 1, Analyzer: "hotalloc", Message: "m1"},
		{File: "b.go", Line: 2, Col: 1, Analyzer: "eventretain", Message: "m2"},
		{File: "c.go", Line: 3, Col: 1, Analyzer: "detflow", Message: "m3"},
	}
	newFindings, stale := base.Apply(current)
	if len(newFindings) != 1 || newFindings[0].Analyzer != "detflow" {
		t.Errorf("Apply new = %+v, want only the detflow finding", newFindings)
	}
	if !current[0].Baselined || !current[1].Baselined {
		t.Error("matched findings not marked baselined in place")
	}
	if current[2].Baselined {
		t.Error("new finding wrongly marked baselined")
	}
	// One m1 copy went unmatched: it is stale.
	if len(stale) != 1 || !strings.Contains(stale[0], "m1") {
		t.Errorf("stale = %v, want the leftover m1 entry", stale)
	}
}

// TestLoadBaselineMissingFile pins the bootstrapping path: no baseline
// file means an empty baseline, not an error.
func TestLoadBaselineMissingFile(t *testing.T) {
	base, err := analysis.LoadBaseline(filepath.Join(t.TempDir(), "absent"))
	if err != nil {
		t.Fatal(err)
	}
	findings := []analysis.Finding{{File: "a.go", Analyzer: "eventretain", Message: "m"}}
	newFindings, stale := base.Apply(findings)
	if len(newFindings) != 1 || len(stale) != 0 {
		t.Errorf("empty baseline: new=%d stale=%d, want 1/0", len(newFindings), len(stale))
	}
}
