// Command sddsvet is the project's multichecker: it statically enforces the
// simulator's determinism and hot-path contracts over the given package
// patterns (default ./...). It ships three analyzers:
//
//	detflow   wall clock, global RNG, and map/goroutine order in the
//	          golden-fingerprint packages, directly or via any call chain
//	hotalloc  per-event allocations on the annotated hot path, any depth
//	locksafe  handlers blocking while holding progress-critical locks
//
// plus a stale-suppression audit (ignoreaudit) reporting //sddsvet:ignore
// comments that no longer suppress anything. The audit runs only when the
// full suite does (no -run subset).
//
// Findings carrying an interprocedural call chain print it indented under
// the finding; -json and -sarif emit it structurally. A committed baseline
// (-baseline sddsvet.baseline) makes known findings informational: the
// exit code gates on new findings only. Regenerate with -write-baseline.
//
// Exit status is 1 when (new) findings are reported, 2 on load/usage
// errors, 0 otherwise. Suppress individual findings with
// //sddsvet:ignore <analyzer> -- <reason>; see DESIGN.md §9.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sdds/internal/analysis"
	"sdds/internal/analysis/all"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("sddsvet", flag.ContinueOnError)
	var (
		only          = fs.String("run", "", "comma-separated analyzer subset (default: all; disables the suppression audit)")
		list          = fs.Bool("list", false, "list analyzers and exit")
		jsonOut       = fs.Bool("json", false, "write the findings report as JSON to stdout")
		jsonFile      = fs.String("json-out", "", "also write the JSON report to this file (CI artifact)")
		sarifOut      = fs.Bool("sarif", false, "write the findings as SARIF 2.1.0 to stdout")
		baselinePath  = fs.String("baseline", "", "baseline file of tolerated findings; exit gates on new findings only")
		writeBaseline = fs.String("write-baseline", "", "write the current findings as a baseline to this file and exit 0")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: sddsvet [-run analyzer,...] [-json|-sarif] [-baseline file] [package pattern ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range all.Analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-12s reports stale //sddsvet:ignore directives (full-suite runs only)\n", all.AuditName)
		return 0
	}
	analyzers := all.Analyzers
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a := all.ByName(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "sddsvet: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sddsvet:", err)
		return 2
	}
	mod, err := analysis.LoadModule(root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sddsvet:", err)
		return 2
	}
	findings, err := all.RunSuite(mod, analyzers, all.SuiteOptions{Audit: *only == ""})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sddsvet:", err)
		return 2
	}

	if *writeBaseline != "" {
		f, err := os.Create(*writeBaseline)
		if err == nil {
			err = analysis.WriteBaseline(f, findings)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sddsvet:", err)
			return 2
		}
		fmt.Printf("sddsvet: wrote %d finding(s) to %s\n", len(findings), *writeBaseline)
		return 0
	}

	var stale []string
	if *baselinePath != "" {
		base, err := analysis.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sddsvet:", err)
			return 2
		}
		_, stale = base.Apply(findings)
	}
	report := analysis.NewReport(mod, findings, stale)

	if *jsonFile != "" {
		if err := writeJSONFile(*jsonFile, report); err != nil {
			fmt.Fprintln(os.Stderr, "sddsvet:", err)
			return 2
		}
	}
	switch {
	case *jsonOut:
		if err := analysis.WriteJSON(os.Stdout, report); err != nil {
			fmt.Fprintln(os.Stderr, "sddsvet:", err)
			return 2
		}
	case *sarifOut:
		if err := analysis.WriteSARIF(os.Stdout, findings, analyzers); err != nil {
			fmt.Fprintln(os.Stderr, "sddsvet:", err)
			return 2
		}
	default:
		analysis.WriteText(os.Stdout, findings)
		for _, s := range stale {
			fmt.Printf("sddsvet: stale baseline entry (no longer occurs): %s\n", s)
		}
	}
	if report.NewCount > 0 {
		return 1
	}
	return 0
}

func writeJSONFile(path string, r *analysis.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = analysis.WriteJSON(io.Writer(f), r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
