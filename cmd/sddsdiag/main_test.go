package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdds/internal/diag"
	"sdds/internal/harness"
	"sdds/internal/probe"
)

// newBundle captures a representative bundle (request + trace) into a
// fresh capture dir and returns the dir and the bundle info.
func newBundle(t *testing.T) (string, *diag.BundleInfo) {
	t.Helper()
	dir := t.TempDir()
	rec, err := diag.NewRecorder(diag.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	req, err := harness.Request{App: "sar", Policy: "history", Scale: 0.05, Seed: 42}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	p := probe.NewSpanProbe()
	p.StartSpan(probe.TrackRun, "run").End()
	info, err := rec.Capture(diag.Capture{
		Trigger:    diag.TriggerManual,
		Key:        req.Key(),
		ContentKey: req.ContentKey(),
		Request:    req,
		Trace: func(w io.Writer) error {
			return probe.WriteChromeTrace(w, p, probe.ChromeOptions{})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir, info
}

func TestTriageValidBundle(t *testing.T) {
	dir, info := newBundle(t)
	if err := run([]string{info.Path}); err != nil {
		t.Fatal(err)
	}
	// Resolve by ID prefix against the dir.
	if err := run([]string{"-dir", dir, info.ID[:6]}); err != nil {
		t.Fatal(err)
	}
}

func TestTriageTamperedBundle(t *testing.T) {
	_, info := newBundle(t)
	if err := os.WriteFile(filepath.Join(info.Path, "request.json"), []byte(`{"app":"hacked"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{info.Path})
	if err == nil || !strings.Contains(err.Error(), "failed validation") {
		t.Fatalf("tampered bundle passed: %v", err)
	}
}

func TestListCaptureDir(t *testing.T) {
	dir, _ := newBundle(t)
	if err := run([]string{"-dir", dir}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownBundle(t *testing.T) {
	if err := run([]string{"/definitely/not/a/bundle"}); err == nil {
		t.Fatal("missing bundle accepted")
	}
	dir := t.TempDir()
	if err := run([]string{"-dir", dir, "beef"}); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

// TestTraceFileEndToEnd drives the standalone-trace path: a regular file
// (a bundle is always a directory) is validated as a Chrome trace.
func TestTraceFileEndToEnd(t *testing.T) {
	dir := t.TempDir()
	p := probe.NewSpanProbe()
	p.StartSpan(probe.TrackRun, "run").End()
	var buf bytes.Buffer
	if err := probe.WriteChromeTrace(&buf, p, probe.ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{good}); err != nil {
		t.Fatalf("run(good) = %v", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"traceEvents":[{"name":"x","ph":"Z","pid":0,"tid":0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}); err == nil || !strings.Contains(err.Error(), "failed validation") {
		t.Fatalf("run(bad) = %v, want a validation failure", err)
	}
	notTrace := filepath.Join(dir, "list.json")
	if err := os.WriteFile(notTrace, []byte(`[]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{notTrace}); err == nil {
		t.Fatal("run accepted a file that is not a trace")
	}
}
