package cliutil

import (
	"flag"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sdds/internal/harness"
)

func parseRun(t *testing.T, args ...string) RunFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var rf RunFlags
	rf.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return rf
}

// TestRunFlagsDefaultRequest asserts a flagless invocation translates to
// the canonical Table II request: empty variant, canonical policy.
func TestRunFlagsDefaultRequest(t *testing.T) {
	rf := parseRun(t)
	req, err := rf.Request()
	if err != nil {
		t.Fatal(err)
	}
	want := harness.Request{App: "hf", Policy: "default", Scale: 1.0, Seed: 1}
	if req != want {
		t.Fatalf("request %+v, want %+v", req, want)
	}
}

// TestRunFlagsVariantTranslation pins the flag→variant-tag mapping,
// including -theta=0 meaning unbounded (not "use the default").
func TestRunFlagsVariantTranslation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, ""},
		{[]string{"-theta", "8"}, "theta=8"},
		{[]string{"-theta", "0"}, "theta=0"},
		{[]string{"-ionodes", "16", "-delta", "40"}, "delta=40,nodes=16"},
		{[]string{"-procs", "32"}, ""}, // restating the default
	}
	for _, tc := range cases {
		rf := parseRun(t, tc.args...)
		req, err := rf.Request()
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if req.Variant != tc.want {
			t.Errorf("%v → variant %q, want %q", tc.args, req.Variant, tc.want)
		}
	}
}

// TestRunFlagsSuggests asserts the did-you-mean validation reaches the
// CLI through the shared translation layer.
func TestRunFlagsSuggests(t *testing.T) {
	rf := parseRun(t, "-policy", "histroy")
	if _, err := rf.Request(); err == nil || !strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("want did-you-mean error, got %v", err)
	}
}

// TestSweepFlagsResumeRequiresJournal pins the satellite fix: -resume
// without -journal is a clear error, not a silent uncached run.
func TestSweepFlagsResumeRequiresJournal(t *testing.T) {
	sf := SweepFlags{Resume: true}
	if _, err := sf.OpenJournal(); err == nil || !strings.Contains(err.Error(), "-resume requires -journal") {
		t.Fatalf("want -resume error, got %v", err)
	}
}

// TestSweepFlagsRejectsDirectoryJournal pins the other half of the fix: a
// journal path naming a directory is rejected with a clear error.
func TestSweepFlagsRejectsDirectoryJournal(t *testing.T) {
	sf := SweepFlags{Journal: t.TempDir(), Resume: true}
	if _, err := sf.OpenJournal(); err == nil || !strings.Contains(err.Error(), "is a directory") {
		t.Fatalf("want directory error, got %v", err)
	}
}

// TestSweepFlagsNoJournal asserts the journal stays nil when unset.
func TestSweepFlagsNoJournal(t *testing.T) {
	var sf SweepFlags
	j, err := sf.OpenJournal()
	if err != nil || j != nil {
		t.Fatalf("OpenJournal() = %v, %v, want nil, nil", j, err)
	}
}

// TestSweepFlagsConfigValidates asserts app typos fail at flag time.
func TestSweepFlagsConfigValidates(t *testing.T) {
	sf := SweepFlags{Scale: 1, Seed: 1, Apps: "sarr"}
	if _, err := sf.Config(); err == nil {
		t.Fatal("unknown app validated")
	}
	sf = SweepFlags{Scale: 1, Seed: 1, Faults: "bogus=0.1"}
	if _, err := sf.Config(); err == nil {
		t.Fatal("bad fault spec validated")
	}
	j := SweepFlags{Scale: 0.05, Seed: 42, Apps: "sar, hf", Journal: filepath.Join(t.TempDir(), "j.jsonl")}
	cfg, err := j.Config()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Apps) != 2 || cfg.Apps[0] != "sar" || cfg.Apps[1] != "hf" {
		t.Fatalf("apps = %v", cfg.Apps)
	}
}

// TestScaleMustBeFinite pins the one scale check behind every entry
// point: a NaN or infinite scale is rejected by Request.Normalize, by
// harness.Config.Validate and by both flag paths, while zero (the
// default) and ordinary positive scales pass.
func TestScaleMustBeFinite(t *testing.T) {
	cases := []struct {
		scale string
		ok    bool
	}{
		{"0", true},
		{"0.05", true},
		{"1", true},
		{"-1", false},
		{"NaN", false},
		{"+Inf", false},
		{"-Inf", false},
		{"Infinity", false},
	}
	for _, tc := range cases {
		scale, err := strconv.ParseFloat(tc.scale, 64)
		if err != nil {
			t.Fatal(err)
		}
		check := func(path string, err error) {
			t.Helper()
			if tc.ok && err != nil {
				t.Errorf("scale %s via %s: %v", tc.scale, path, err)
			}
			if !tc.ok && (err == nil || !strings.Contains(err.Error(), "scale")) {
				t.Errorf("scale %s via %s: err = %v, want a scale error", tc.scale, path, err)
			}
		}
		_, err = harness.Request{App: "sar", Scale: scale}.Normalize()
		check("Request.Normalize", err)
		check("Config.Validate", harness.Config{Scale: scale}.Validate())

		rf := parseRun(t, "-app", "sar", "-scale", tc.scale)
		_, err = rf.Request()
		check("RunFlags.Request", err)

		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		var sf SweepFlags
		sf.Register(fs)
		if err := fs.Parse([]string{"-scale", tc.scale}); err != nil {
			t.Fatal(err)
		}
		_, err = sf.Config()
		check("SweepFlags.Config", err)
	}
}
