package analysis_test

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"sdds/internal/analysis"
	"sdds/internal/analysis/all"
	"sdds/internal/analysis/detflow"
	"sdds/internal/analysis/locksafe"
)

// TestMulticheckerOnKnownBad runs the full analyzer suite — exactly as
// cmd/sddsvet does, suppression audit included — over two fixtures carrying
// one violation per analyzer plus one suppressed line and one stale
// suppression, and checks the count, the output format, and that every
// analyzer contributed.
func TestMulticheckerOnKnownBad(t *testing.T) {
	defer override(t, regexp.MustCompile(`knownbad(det)?$`))()

	mod, err := analysis.LoadModule("../..",
		"internal/analysis/testdata/src/knownbad",
		"internal/analysis/testdata/src/knownbaddet")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := all.RunSuite(mod, all.Analyzers, all.SuiteOptions{Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	analysis.WriteText(&buf, findings)
	out := buf.String()
	// knownbad: stamp and reduce (detflow), arm (hotalloc), keep
	// (eventretain); the suppressed function contributes nothing.
	// knownbaddet: stampDet (detflow), badHandler (locksafe), and the
	// deliberately stale directive (ignoreaudit).
	if len(findings) != 7 {
		t.Fatalf("got %d findings, want 7:\n%s", len(findings), out)
	}
	for _, a := range all.Analyzers {
		if !strings.Contains(out, ": "+a.Name+": ") {
			t.Errorf("no finding from %s in output:\n%s", a.Name, out)
		}
	}
	if !strings.Contains(out, ": "+all.AuditName+": ") {
		t.Errorf("no finding from the suppression audit in output:\n%s", out)
	}
	lineRE := regexp.MustCompile(`(?m)^internal/analysis/testdata/src/knownbad(det)?/knownbad(det)?\.go:\d+:\d+: \w+: .+$`)
	if got := len(lineRE.FindAllString(out, -1)); got != 7 {
		t.Errorf("%d lines match the file:line:col: analyzer: message format, want 7:\n%s", got, out)
	}
	if strings.Contains(out, "suppression") {
		t.Errorf("suppressed finding leaked into output:\n%s", out)
	}
	// The locksafe finding must name the lock, the critical root, and render
	// the blocking chain.
	if !strings.Contains(out, "knownbaddet.mu") || !strings.Contains(out, "criticalRoot") {
		t.Errorf("locksafe finding does not name the lock and critical root:\n%s", out)
	}
	if !strings.Contains(out, " → ") {
		t.Errorf("no rendered call chain in output:\n%s", out)
	}
	if !strings.Contains(out, "wall-clock") {
		t.Errorf("detflow finding does not name the wall-clock effect:\n%s", out)
	}
}

// TestLoadSkipsTestdata proves ./... never descends into analyzer fixtures:
// they are violation-dense by design and must not pollute real runs.
func TestLoadSkipsTestdata(t *testing.T) {
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load(./...) found no packages")
	}
	for _, p := range pkgs {
		if strings.Contains(p.PkgPath, "testdata") {
			t.Errorf("Load(./...) descended into %s", p.PkgPath)
		}
	}
}

// TestSuiteCleanOnRepo is the anchor the Makefile lint target relies on: the
// shipped analyzer suite, at its default scopes and with the committed
// baseline applied, reports nothing new on the repository itself — and the
// baseline contains no stale entries.
func TestSuiteCleanOnRepo(t *testing.T) {
	mod, err := analysis.LoadModule("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := all.RunSuite(mod, all.Analyzers, all.SuiteOptions{Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := analysis.LoadBaseline("../../sddsvet.baseline")
	if err != nil {
		t.Fatal(err)
	}
	newFindings, stale := base.Apply(findings)
	if len(newFindings) != 0 {
		var buf bytes.Buffer
		analysis.WriteText(&buf, newFindings)
		t.Errorf("analyzer suite reports %d new findings on the repo, want 0:\n%s", len(newFindings), buf.String())
	}
	for _, s := range stale {
		t.Errorf("stale baseline entry (no longer occurs): %s", s)
	}
}

func override(t *testing.T, detRE *regexp.Regexp) func() {
	t.Helper()
	oldDet, oldRoots := detflow.DetPackages, locksafe.CriticalRoots
	detflow.DetPackages = detRE
	locksafe.CriticalRoots = []locksafe.Root{
		{PkgPath: "sdds/internal/analysis/testdata/src/knownbaddet", Name: "criticalRoot"},
	}
	return func() {
		detflow.DetPackages, locksafe.CriticalRoots = oldDet, oldRoots
	}
}
