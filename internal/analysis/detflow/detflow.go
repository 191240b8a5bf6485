// Package detflow implements the sddsvet determinism analyzer. The
// reproduction's headline guarantee — bit-identical virtual results for a
// fixed seed, asserted hex-exactly by the golden fingerprints — holds only
// if the code feeding those results never consults the wall clock, never
// draws from the globally-seeded RNG, and never lets map-iteration or
// goroutine-scheduling order decide an outcome.
//
// detflow is purely summary-driven. Each function declared in a package of
// DetPackages has a callsum summary that is clean, carries an intrinsic
// cause inside the function (reported at its site), or carries the effect
// via a call. A via-call cause is reported at the boundary call, where the
// callee leaves the scope, with the full chain down to the leaf; a callee
// inside the scope gets its own report instead, so each root cause surfaces
// once. One finding per function per effect kind: the first cause in source
// order wins, matching the summary lattice.
//
// The rules themselves live in callsum's walker: time.Now/Since/Until/
// After/Tick/Sleep, the global math/rand draws, and, as map-order
// intrinsics, any call inside a map range, an append to an outer slice
// that is not sorted afterwards, a last-writer-wins or float-accumulating
// store to outer state inside a map range, and a float compound assignment
// to outer state from a `go` body.
package detflow

import (
	"go/ast"
	"go/types"
	"regexp"

	"sdds/internal/analysis"
	"sdds/internal/analysis/callsum"
)

// DetPackages is the one scope table: every package whose behaviour feeds
// golden-compared output — the event engine and device/executor models,
// the compiler and its cache, the store/service/shard layers that persist
// and serve results, the schedule math, metrics, workload generators, the
// harness and its memo — plus the benchmark gate. internal/probe is
// deliberately absent: its whole job is wall-clock observability spans,
// and its intrinsic sites carry //sddsvet:ignore detflow so they never
// taint callers' summaries. Tests may override it.
var DetPackages = regexp.MustCompile(`^sdds/(internal/(sim|cluster|disk|power|sched|ionode|mpiio|netsim|fault|store|service|compiler|compilecache|diag|shard|backoff|core|metrics|harness|memo|stripe|workloads|loop|polyhedral|cache|trace|benchfmt|cliutil|strutil)|cmd/benchcheck)$`)

// checkedKinds are the nondeterminism effects detflow gates on, with the
// remedy each diagnostic suggests.
var checkedKinds = []struct {
	kind callsum.EffectKind
	fix  string
}{
	{callsum.WallClock, "use the virtual clock (sim.Engine.Now)"},
	{callsum.GlobalRand, "use the engine's seeded RNG (sim.Engine.Rand)"},
	{callsum.MapOrder, "iterate sorted keys or reduce deterministically"},
}

// Analyzer reports nondeterminism reachable from deterministic packages.
var Analyzer = &analysis.Analyzer{
	Name: "detflow",
	Doc: "flags wall-clock reads, global math/rand draws, and map- or " +
		"goroutine-ordered outcomes in the golden-fingerprint packages, " +
		"directly or through any call chain leaving them",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !DetPackages.MatchString(pass.PkgPath) {
		return nil
	}
	sums := callsum.Of(pass.Mod)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				checkFunc(pass, sums, fn)
			}
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, sums *callsum.Summaries, fn *types.Func) {
	sum := sums.ForFunc(fn)
	if sum == nil {
		return
	}
	for _, ck := range checkedKinds {
		c := sum.Effect(ck.kind)
		if c == nil {
			continue
		}
		if c.Callee == nil {
			pass.Reportf(c.Pos, "%s (%s) in deterministic package %s: %s, or justify with //sddsvet:ignore detflow",
				c.Detail, ck.kind, pass.Pkg.Name(), ck.fix)
			continue
		}
		if DetPackages.MatchString(c.Callee.Pkg().Path()) {
			continue // the in-scope callee reports it where it is declared
		}
		chain := sums.EffectChain(fn, ck.kind)
		pass.ReportChain(c.Pos, chain, "%s reached from deterministic code: %s", ck.kind, callsum.Render(chain))
	}
}
