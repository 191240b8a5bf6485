// Command benchcheck records and gates the committed benchmark baseline
// (BENCH_sim.json). It reads a `go test -bench` stream on stdin and either
// compares it against the baseline, failing on regressions:
//
//	go test -bench . -benchmem ./internal/sim | benchcheck -baseline BENCH_sim.json
//
// or, with -write, records it as the new baseline instead:
//
//	go test -bench . -benchmem ./internal/sim | benchcheck -write -baseline BENCH_sim.json
//
// The recorded file maps benchmark name to its measured values, e.g.
// {"BenchmarkX": {"iterations": N, "ns/op": 12.3, ...}}; custom metrics
// reported via b.ReportMetric (virtual_J, virtual_s, ...) pass through
// under their unit name. Non-benchmark lines are ignored, so the full
// `go test` stream can be piped in unfiltered.
//
// Comparison rules:
//   - Every benchmark in the baseline must appear on stdin (a silently
//     dropped benchmark would hide its regression forever).
//   - ns/op may grow by at most -tol (default 0.25, i.e. +25%) over the
//     baseline. Shrinking is never an error; an improvement beyond the
//     tolerance prints a note suggesting a baseline refresh.
//   - allocs/op is exact when the baseline is 0 (a zero-alloc hot path
//     must stay zero-alloc) and may otherwise grow by at most 2% — enough
//     to absorb iteration-count rounding, not enough to hide a new
//     per-event allocation.
//   - B/op, iterations, and custom b.ReportMetric units are informational
//     and not checked (virtual_J etc. are asserted by the test suite).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"sdds/internal/benchfmt"
)

// allocTol absorbs iteration-count rounding on nonzero alloc baselines.
const allocTol = 0.02

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_sim.json", "committed benchmark baseline")
		tol          = flag.Float64("tol", 0.25, "allowed fractional ns/op growth over the baseline")
		write        = flag.Bool("write", false, "record stdin as the new baseline instead of comparing against it")
	)
	flag.Parse()
	if err := run(*baselinePath, *tol, *write); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
}

func run(baselinePath string, tol float64, write bool) error {
	var baseline benchfmt.Results
	if !write {
		data, err := os.ReadFile(baselinePath)
		if err != nil {
			return err
		}
		if baseline, err = benchfmt.UnmarshalBaseline(data); err != nil {
			return fmt.Errorf("%s: %v", baselinePath, err)
		}
	}
	current, err := benchfmt.Parse(os.Stdin)
	if err != nil {
		return err
	}
	if write {
		if len(current) == 0 {
			return fmt.Errorf("no benchmark lines on stdin")
		}
		out, err := benchfmt.MarshalSorted(current)
		if err != nil {
			return err
		}
		if err := os.WriteFile(baselinePath, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("benchcheck: recorded %d benchmarks in %s\n", len(current), baselinePath)
		return nil
	}
	failures, notes := compare(baseline, current, tol)
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		return fmt.Errorf("%d regression(s) vs %s", len(failures), baselinePath)
	}
	fmt.Printf("benchcheck: %d benchmarks within tolerance of %s\n", len(baseline), baselinePath)
	return nil
}

// compare applies the regression rules, returning failures and
// informational notes in deterministic name order.
func compare(baseline, current benchfmt.Results, tol float64) (failures, notes []string) {
	names := make([]string, 0, len(baseline))
	for n := range baseline {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		base, cur := baseline[name], current[name]
		if cur == nil {
			failures = append(failures, fmt.Sprintf("%s: in baseline but missing from this run", name))
			continue
		}
		if baseNS, ok := base["ns/op"]; ok {
			curNS, ok := cur["ns/op"]
			switch {
			case !ok:
				failures = append(failures, fmt.Sprintf("%s: baseline has ns/op but this run does not", name))
			case curNS > baseNS*(1+tol):
				failures = append(failures, fmt.Sprintf("%s: ns/op %.4g exceeds baseline %.4g by more than %.0f%%",
					name, curNS, baseNS, tol*100))
			case curNS < baseNS*(1-tol):
				notes = append(notes, fmt.Sprintf("%s: ns/op %.4g improved more than %.0f%% over baseline %.4g; consider `make bench` to refresh",
					name, curNS, tol*100, baseNS))
			}
		}
		if baseAllocs, ok := base["allocs/op"]; ok {
			curAllocs, ok := cur["allocs/op"]
			switch {
			case !ok:
				failures = append(failures, fmt.Sprintf("%s: baseline has allocs/op but this run does not", name))
			case baseAllocs == 0 && curAllocs != 0:
				failures = append(failures, fmt.Sprintf("%s: allocs/op %g on a zero-alloc baseline", name, curAllocs))
			case baseAllocs > 0 && curAllocs > baseAllocs*(1+allocTol):
				failures = append(failures, fmt.Sprintf("%s: allocs/op %g exceeds baseline %g by more than %.0f%%",
					name, curAllocs, baseAllocs, allocTol*100))
			}
		}
	}
	return failures, notes
}
