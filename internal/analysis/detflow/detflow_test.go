package detflow_test

import (
	"regexp"
	"testing"

	"sdds/internal/analysis"
	"sdds/internal/analysis/analysistest"
	"sdds/internal/analysis/detflow"
)

// TestDetflowScope pins the one scope table: the persistence/serving
// layers and the compiler-side and tooling packages whose outputs are
// golden-compared (or feed files that are) are in; the probe (wall-clock by
// design) and the developer tools stay out.
func TestDetflowScope(t *testing.T) {
	for _, pkg := range []string{
		"sdds/internal/service",
		"sdds/internal/core", "sdds/internal/metrics", "sdds/internal/harness",
		"sdds/internal/benchfmt", "sdds/internal/cliutil", "sdds/cmd/benchcheck",
		"sdds/internal/trace", "sdds/internal/workloads",
	} {
		if !detflow.DetPackages.MatchString(pkg) {
			t.Errorf("DetPackages does not cover %s", pkg)
		}
	}
	for _, pkg := range []string{
		"sdds/internal/probe", "sdds/internal/analysis", "sdds/cmd/sddsvet",
		"sdds/cmd/sddsdiag", "sdds/internal/simx",
	} {
		if detflow.DetPackages.MatchString(pkg) {
			t.Errorf("DetPackages must not cover %s", pkg)
		}
	}
}

// TestDetflowCoversFaultPackage pins the simulation cone into the scope:
// the device models, the fault-injection package and the compile-cache
// layer. Per-site fault streams and restored compile artifacts feed
// golden-compared results exactly like the device models do.
func TestDetflowCoversFaultPackage(t *testing.T) {
	for _, pkg := range []string{
		"sdds/internal/sim", "sdds/internal/fault", "sdds/internal/disk",
		"sdds/internal/compiler", "sdds/internal/compilecache",
	} {
		if !detflow.DetPackages.MatchString(pkg) {
			t.Errorf("DetPackages does not cover %s", pkg)
		}
	}
}

// TestDetflowSimFixture checks wall-clock, global-RNG, and every map-order
// rule (calls, appends, last-writer-wins and float stores) in
// simulation-model code, the allowed patterns, and the ignore path.
func TestDetflowSimFixture(t *testing.T) {
	defer overridePackages(t, regexp.MustCompile(`.`))()
	analysistest.Run(t, "testdata/src/simbad", detflow.Analyzer)
}

// TestDetflowFaultFixture proves nondeterministic hit decisions in
// fault-injector-shaped code (global RNG, wall clock) are rejected while
// the real injector's seeded splitmix counter stream is accepted.
func TestDetflowFaultFixture(t *testing.T) {
	defer overridePackages(t, regexp.MustCompile(`.`))()
	analysistest.Run(t, "testdata/src/faultbad", detflow.Analyzer)
}

// TestDetflowRestoreFixture proves map-iteration-order dependence in
// artifact-restore-shaped code (ranging a deserialized points map while
// building the schedule) is rejected while the real restore's
// slice-ordered and collect-then-sort shapes are accepted.
func TestDetflowRestoreFixture(t *testing.T) {
	defer overridePackages(t, regexp.MustCompile(`.`))()
	analysistest.Run(t, "testdata/src/restorebad", detflow.Analyzer)
}

// TestDetflowFloatFixture checks the map-ordered and goroutine-ordered
// float reductions, the order-free allowed patterns, and the ignore path.
func TestDetflowFloatFixture(t *testing.T) {
	defer overridePackages(t, regexp.MustCompile(`.`))()
	analysistest.Run(t, "testdata/src/floatbad", detflow.Analyzer)
}

// TestDetflowTransitiveCrossPackage is the acceptance fixture for the
// boundary rule: code reaching time.Now only through a helper package is
// flagged at the call leaving the scope, with the full chain. The scope
// override matches simtrans but not simtranshelper — exactly the shape of
// a host-side utility leaking into model code.
func TestDetflowTransitiveCrossPackage(t *testing.T) {
	defer overridePackages(t, regexp.MustCompile(`simtrans$`))()
	analysistest.Run(t, "testdata/src/simtrans", detflow.Analyzer)
}

// TestDetflowSimOutOfScope proves the default scope keeps the analyzer off
// other code: the simulation-rule fixture yields zero diagnostics when its
// package path is out of scope.
func TestDetflowSimOutOfScope(t *testing.T) {
	checkOutOfScope(t, "simbad")
}

// TestDetflowFloatOutOfScope is the same check for the float-reduction
// fixture.
func TestDetflowFloatOutOfScope(t *testing.T) {
	checkOutOfScope(t, "floatbad")
}

// checkOutOfScope runs the analyzer with the default scope over the named
// fixture, whose package path lies outside it, and expects no diagnostics.
func checkOutOfScope(t *testing.T, dir string) {
	t.Helper()
	mod, err := analysis.LoadModule("../../..", "internal/analysis/detflow/testdata/src/"+dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(mod, mod.Selected[0], []*analysis.Analyzer{detflow.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("%s: out-of-scope package produced %d diagnostics, want 0: %v", dir, len(diags), diags)
	}
}

func overridePackages(t *testing.T, re *regexp.Regexp) func() {
	t.Helper()
	old := detflow.DetPackages
	detflow.DetPackages = re
	return func() { detflow.DetPackages = old }
}
