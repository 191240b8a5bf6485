// Command sddsdiag inspects the diagnostics bundles captured by the
// harness session, the CLIs (-capture-dir), and the sddsd service: it
// verifies every file against the MANIFEST.json integrity hashes, checks
// the embedded Chrome trace with the shared probe validator, confirms the
// captured request is strictly replayable, and prints a triage summary.
//
// An argument that is a regular file rather than a bundle directory is a
// Chrome trace-event file — the output of `sddsim -trace` or `sddstables
// -trace` — and is checked on its own with the same validator, so the
// bytes a user would load into chrome://tracing are verified too.
//
//	sddsdiag bundle-3f2a9c81d4e0           # triage one bundle directory
//	sddsdiag -dir capture/                 # list a capture directory
//	sddsdiag -dir capture/ 3f2a           # resolve an ID prefix, then triage
//	sddsdiag trace.json                    # validate a Chrome trace
//
// Exit status is non-zero when any inspected bundle or trace fails
// validation.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sdds/internal/diag"
	"sdds/internal/harness"
	"sdds/internal/probe"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sddsdiag:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sddsdiag", flag.ContinueOnError)
	dir := fs.String("dir", "", "capture directory: list its bundles, or resolve bundle-ID arguments against it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets := fs.Args()
	if *dir != "" && len(targets) == 0 {
		return list(*dir)
	}
	if len(targets) == 0 {
		return fmt.Errorf("usage: sddsdiag [-dir capture-dir] (bundle-path | bundle-id | trace.json) ...")
	}
	bad := 0
	for i, t := range targets {
		if i > 0 {
			fmt.Println()
		}
		path, err := resolve(*dir, t)
		if err != nil {
			return err
		}
		check := triage
		if fi, err := os.Stat(path); err == nil && fi.Mode().IsRegular() {
			check = checkTraceFile
		}
		ok, err := check(path)
		if err != nil {
			return err
		}
		if !ok {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d inputs failed validation", bad, len(targets))
	}
	return nil
}

// resolve maps an argument to a bundle path: an existing file or directory
// wins; otherwise it is treated as an ID (or unique prefix) under -dir.
func resolve(dir, target string) (string, error) {
	if _, err := os.Stat(target); err == nil {
		return target, nil
	}
	if dir == "" {
		return "", fmt.Errorf("%s: no such bundle (pass -dir to resolve IDs)", target)
	}
	infos, err := diag.ListDir(dir)
	if err != nil {
		return "", err
	}
	var match string
	for _, b := range infos {
		if b.ID == target {
			return b.Path, nil
		}
		if strings.HasPrefix(b.ID, target) {
			if match != "" {
				return "", fmt.Errorf("%s: ambiguous bundle ID in %s", target, dir)
			}
			match = b.Path
		}
	}
	if match == "" {
		return "", fmt.Errorf("%s: no such bundle in %s", target, dir)
	}
	return match, nil
}

// list prints a one-line-per-bundle summary of a capture directory.
func list(dir string) error {
	infos, err := diag.ListDir(dir)
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		fmt.Printf("%s: no bundles\n", dir)
		return nil
	}
	fmt.Printf("%-14s %-8s %-22s %-7s %s\n", "ID", "TRIGGER", "CREATED", "FILES", "KEY")
	for _, b := range infos {
		created := time.UnixMilli(b.Manifest.CreatedUnixMS).UTC().Format("2006-01-02T15:04:05Z")
		fmt.Printf("%-14s %-8s %-22s %-7d %s\n",
			b.ID, b.Manifest.Trigger, created, len(b.Manifest.Files), b.Manifest.Key)
		if b.Manifest.Error != "" {
			fmt.Printf("  error: %s\n", firstLine(b.Manifest.Error))
		}
	}
	return nil
}

// triage validates one bundle and prints its summary. ok reports whether
// the bundle passed every check; err only covers I/O-level failures.
func triage(path string) (ok bool, err error) {
	rep, err := diag.Validate(path)
	if err != nil {
		return false, err
	}
	man := rep.Manifest
	fmt.Printf("bundle:    %s (%s)\n", man.ID, path)
	fmt.Printf("trigger:   %s\n", man.Trigger)
	if man.Key != "" {
		fmt.Printf("run:       %s\n", man.Key)
	}
	if man.Error != "" {
		fmt.Printf("error:     %s\n", firstLine(man.Error))
	}
	if man.ElapsedMS > 0 {
		line := fmt.Sprintf("elapsed:   %d ms", man.ElapsedMS)
		if man.MedianMS > 0 {
			line += fmt.Sprintf(" (rolling median %d ms)", man.MedianMS)
		}
		fmt.Println(line)
	}
	fmt.Printf("created:   %s (%s)\n",
		time.UnixMilli(man.CreatedUnixMS).UTC().Format(time.RFC3339), man.GoVersion)
	var total int64
	for _, f := range man.Files {
		total += f.Bytes
	}
	fmt.Printf("files:     %d (%d bytes)\n", len(man.Files), total)

	problems := append([]string(nil), rep.Problems...)
	problems = append(problems, checkTrace(rep)...)
	problems = append(problems, checkRequest(rep)...)

	if len(problems) == 0 {
		fmt.Println("status:    OK — integrity verified, trace well-formed, request replayable")
		if _, hasReq := rep.Files["request.json"]; hasReq {
			fmt.Println("replay:    resubmit request.json (sddsd POST /v1/runs, or the matching sddsim flags)")
		}
		return true, nil
	}
	fmt.Printf("status:    INVALID (%d problems)\n", len(problems))
	for _, p := range problems {
		fmt.Printf("  - %s\n", p)
	}
	return false, nil
}

// checkTrace runs the shared Chrome-trace validator over trace.json.
func checkTrace(rep *diag.Report) []string {
	data, ok := rep.Files["trace.json"]
	if !ok {
		return nil
	}
	problems, stats, err := probe.CheckChromeTrace(data)
	if err != nil {
		return []string{fmt.Sprintf("trace.json: %v", err)}
	}
	fmt.Printf("trace:     %s\n", stats)
	out := make([]string, 0, len(problems))
	for _, p := range problems {
		out = append(out, "trace.json: "+p)
	}
	return out
}

// checkTraceFile validates a standalone Chrome trace-event file, printing
// one line per problem. ok reports whether the trace passed; err covers
// unreadable files and input that is not a trace-event object at all.
func checkTraceFile(path string) (ok bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	problems, stats, err := probe.CheckChromeTrace(data)
	if err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	for _, p := range problems {
		fmt.Printf("%s: %s\n", path, p)
	}
	if len(problems) == 0 {
		fmt.Printf("%s: ok (%s)\n", path, stats)
	}
	return len(problems) == 0, nil
}

// checkRequest confirms request.json strictly decodes into the canonical
// harness.Request and survives normalization — i.e. it can be resubmitted
// verbatim to reproduce the run.
func checkRequest(rep *diag.Report) []string {
	data, ok := rep.Files["request.json"]
	if !ok {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req harness.Request
	if err := dec.Decode(&req); err != nil {
		return []string{fmt.Sprintf("request.json: not a canonical request: %v", err)}
	}
	norm, err := req.Normalize()
	if err != nil {
		return []string{fmt.Sprintf("request.json: fails validation: %v", err)}
	}
	fmt.Printf("request:   %s\n", norm.Key())
	if want := rep.Manifest.ContentKey; want != "" && norm.ContentKey() != want {
		return []string{fmt.Sprintf("request.json: content key %s does not match manifest %s",
			norm.ContentKey(), want)}
	}
	return nil
}

// firstLine truncates multi-line error text (panic stacks) for summaries.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " …"
	}
	return s
}
