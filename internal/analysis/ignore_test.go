package analysis_test

import (
	"go/token"
	"testing"

	"sdds/internal/analysis"
)

// TestIgnoreIndexEdgeCases drives the ignore index over the ignoreedge
// fixture: stacked directives (above-line and trailing forms covering the
// same line) are both marked used; one comma-list directive suppresses two
// different analyzers' diagnostics on the same line; a file-level
// directive covers the whole file; and everything that suppressed nothing
// comes back from Stale.
func TestIgnoreIndexEdgeCases(t *testing.T) {
	mod, err := analysis.LoadModule("../..", "internal/analysis/testdata/src/ignoreedge")
	if err != nil {
		t.Fatal(err)
	}
	pkg := mod.Selected[0]
	idx := analysis.NewIgnoreIndex(pkg)

	posOf := func(name string) token.Pos {
		t.Helper()
		obj := pkg.Types.Scope().Lookup(name)
		if obj == nil {
			t.Fatalf("no top-level object %q in fixture", name)
		}
		return obj.Pos()
	}

	// File-level: covers a line nowhere near the directive.
	if !idx.Suppressed("hotalloc", posOf("now")) {
		t.Error("file-level hotalloc directive did not cover a distant line")
	}
	// Stacked: both the above-line and the trailing directive cover stamp's
	// line; one Suppressed call must mark both used.
	if !idx.Suppressed("detflow", posOf("stamp")) {
		t.Error("stacked detflow directives did not cover the stamp line")
	}
	// Multi-diagnostic line: the comma-list directive answers for both
	// analyzers.
	if !idx.Suppressed("detflow", posOf("reduce")) {
		t.Error("detflow half of the comma-list directive did not cover reduce")
	}
	if !idx.Suppressed("locksafe", posOf("reduce")) {
		t.Error("locksafe half of the comma-list directive did not cover reduce")
	}
	// An analyzer nobody named stays unsuppressed.
	if idx.Suppressed("detflow", posOf("answer")) {
		t.Error("detflow suppressed on answer without any directive naming it")
	}

	// Every detflow directive (stacked pair + comma-list half) is now used.
	for _, d := range idx.Directives() {
		if d.Name == "detflow" && !d.Used() {
			t.Errorf("detflow directive at %s:%d not marked used", d.File, d.Line)
		}
	}
	// Only the deliberately-stale locksafe directive on answer is left.
	stale := idx.Stale()
	if len(stale) != 1 || stale[0].Name != "locksafe" || stale[0].Line != pkg.Fset.Position(posOf("answer")).Line-1 {
		names := make([]string, 0, len(stale))
		for _, d := range stale {
			names = append(names, d.Name)
		}
		t.Errorf("Stale() = %v, want exactly [locksafe] above answer", names)
	}
}
