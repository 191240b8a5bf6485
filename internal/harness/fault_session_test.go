package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdds/internal/fault"
	"sdds/internal/power"
)

// faultyTiny is tiny() plus a stress fault model, for the injected-sweep
// determinism and journal tests.
func faultyTiny() Config {
	c := tiny()
	fc := fault.DefaultConfig()
	fc.Rates[fault.SiteDiskRead] = 0.05
	fc.Rates[fault.SiteDiskWrite] = 0.05
	fc.Rates[fault.SiteBadSector] = 0.02
	fc.Rates[fault.SiteNetDrop] = 0.02
	fc.Rates[fault.SiteNodeStall] = 0.01
	fc.Seed = 11
	c.Faults = &fc
	return c
}

// TestWorkerPanicIsolated asserts the crash-safe pool: a run that panics
// fails only its own run with a stack-carrying error; sibling runs on the
// same session complete normally and land in the cache.
func TestWorkerPanicIsolated(t *testing.T) {
	s := NewSession(SessionOptions{Workers: 4})
	c := tiny().withDefaults()

	good := c.request("sar", power.KindDefault, false, "")
	boom := c.request("sar", power.KindDefault, false, "theta=8")
	s.beforeSimulate = func(req Request) {
		if req == boom {
			panic("injected test panic")
		}
	}

	_, _, err := s.run(context.Background(), boom)
	if err == nil {
		t.Fatal("panicking run returned no error")
	}
	if !strings.Contains(err.Error(), "injected test panic") {
		t.Fatalf("panic error lost the payload: %v", err)
	}
	if !strings.Contains(err.Error(), "fault_session_test.go") {
		t.Fatalf("panic error carries no stack: %v", err)
	}

	// Siblings (and the session itself) survive.
	res, _, err := s.run(context.Background(), good)
	if err != nil || res == nil {
		t.Fatalf("sibling run after panic: %v", err)
	}
	// The panic verdict is cached like any failure: a waiter sees it
	// without re-simulating.
	_, out, err := s.run(context.Background(), boom)
	if err == nil || !out.hit {
		t.Fatalf("cached panic verdict: hit=%v err=%v", out.hit, err)
	}
}

// TestRunTimeoutDeadlineExceeded asserts the per-run deadline: a session
// with a vanishingly small RunTimeout fails each run with an error
// wrapping context.DeadlineExceeded, while the caller's own context stays
// intact.
func TestRunTimeoutDeadlineExceeded(t *testing.T) {
	s := NewSession(SessionOptions{Workers: 1, RunTimeout: time.Nanosecond})
	c := tiny().withDefaults()
	_, _, err := s.run(context.Background(), c.request("sar", power.KindDefault, false, ""))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The deadline verdict is a property of the configuration: cached.
	_, out, err2 := s.run(context.Background(), c.request("sar", power.KindDefault, false, ""))
	if !errors.Is(err2, context.DeadlineExceeded) || !out.hit {
		t.Fatalf("cached deadline verdict: hit=%v err=%v", out.hit, err2)
	}
	simulated, _ := s.Stats()
	if simulated != 1 {
		t.Fatalf("simulated %d times, want 1 (verdict cached)", simulated)
	}

	// A generous deadline lets the same run complete.
	ok := NewSession(SessionOptions{Workers: 1, RunTimeout: time.Minute})
	if _, _, err := ok.run(context.Background(), c.request("sar", power.KindDefault, false, "")); err != nil {
		t.Fatalf("run under generous deadline: %v", err)
	}
}

// TestInjectedSweepWorkerCountInvariant asserts fixed-seed fault injection
// is deterministic across worker counts: the rendered tables of an
// injected sweep are byte-identical between a serial and a parallel
// session.
func TestInjectedSweepWorkerCountInvariant(t *testing.T) {
	exps := stressExperiments(t)
	cfg := faultyTiny()
	serial, err := NewSession(SessionOptions{Workers: 1}).RunAll(context.Background(), exps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewSession(SessionOptions{Workers: 8}).RunAll(context.Background(), exps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderAll(parallel), renderAll(serial); got != want {
		t.Fatalf("injected sweep diverges across worker counts:\n--- parallel ---\n%s\n--- serial ---\n%s", got, want)
	}
}

// TestFaultConfigPartOfCacheKey asserts fault-free and injected runs never
// alias in the session cache.
func TestFaultConfigPartOfCacheKey(t *testing.T) {
	s := NewSession(SessionOptions{Workers: 1})
	plain := tiny().withDefaults()
	faulty := faultyTiny().withDefaults()
	a, _, err := s.run(context.Background(), plain.request("sar", power.KindDefault, false, ""))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := s.run(context.Background(), faulty.request("sar", power.KindDefault, false, ""))
	if err != nil {
		t.Fatal(err)
	}
	if simulated, _ := s.Stats(); simulated != 2 {
		t.Fatalf("simulated %d distinct runs, want 2", simulated)
	}
	if a.Faults != nil {
		t.Fatal("fault-free run has a FaultStats block")
	}
	if b.Faults == nil || b.Faults.Total() == 0 {
		t.Fatal("injected run has no faults")
	}
}

// TestJournalResumeCompletesOnlyMissingRuns simulates a killed sweep: a
// first session journals a subset of the plan, a resumed session runs the
// full plan, and the simulated-run counter proves only the missing
// configurations executed.
func TestJournalResumeCompletesOnlyMissingRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	cfg := faultyTiny()
	exps := stressExperiments(t)
	subset := exps[:1] // table3: the baselines, a strict subset of the plan

	j1, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSession(SessionOptions{Workers: 2, Journal: j1})
	partial, err := s1.RunAll(context.Background(), subset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstSimulated, _ := s1.Stats()
	if firstSimulated == 0 {
		t.Fatal("first session simulated nothing")
	}
	if j1.Appends() != firstSimulated {
		t.Fatalf("journal recorded %d runs, session simulated %d", j1.Appends(), firstSimulated)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash" and resume: the second session must reuse every journaled
	// run and simulate only the remainder of the full plan.
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != int(firstSimulated) {
		t.Fatalf("resume loaded %d entries, want %d", j2.Len(), firstSimulated)
	}
	s2 := NewSession(SessionOptions{Workers: 2, Journal: j2})
	if s2.Preloaded() != int(firstSimulated) {
		t.Fatalf("preloaded %d runs, want %d", s2.Preloaded(), firstSimulated)
	}
	full, err := s2.RunAll(context.Background(), exps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	planned := len(PlanRequests(exps, cfg))
	secondSimulated, _ := s2.Stats()
	if want := int64(planned) - firstSimulated; secondSimulated != want {
		t.Fatalf("resumed session simulated %d runs, want %d (plan %d - journaled %d)",
			secondSimulated, want, planned, firstSimulated)
	}

	// The resumed sweep's output must match a from-scratch sweep exactly —
	// journaled results are real results.
	fresh, err := NewSession(SessionOptions{Workers: 2}).RunAll(context.Background(), exps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderAll(full), renderAll(fresh); got != want {
		t.Fatalf("resumed output diverges from fresh:\n--- resumed ---\n%s\n--- fresh ---\n%s", got, want)
	}
	// And the subset rendered before the crash matches its slice of the
	// fresh output.
	if got, want := renderAll(partial), renderAll(fresh[:1]); got != want {
		t.Fatalf("pre-crash output diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestJournalToleratesTornTrailingLine asserts crash tolerance: a journal
// whose final line was cut mid-write (the kill point) loses only that
// line on resume.
func TestJournalToleratesTornTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.journal")
	cfg := tiny()
	j1, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSession(SessionOptions{Workers: 1, Journal: j1})
	if _, _, err := s1.run(context.Background(), cfg.withDefaults().request("sar", power.KindDefault, false, "")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.run(context.Background(), cfg.withDefaults().request("madbench2", power.KindDefault, false, "")); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the journal: chop the last 20 bytes (mid-JSON, no newline).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 40 {
		t.Fatalf("journal too small to tear: %d bytes", len(data))
	}
	if err := os.WriteFile(path, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 1 {
		t.Fatalf("torn journal loaded %d entries, want 1 (intact prefix)", j2.Len())
	}
	// Appending after resume keeps the file line-aligned: the torn bytes
	// were truncated away.
	s2 := NewSession(SessionOptions{Workers: 1, Journal: j2})
	if _, _, err := s2.run(context.Background(), cfg.withDefaults().request("madbench2", power.KindDefault, false, "")); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 2 {
		t.Fatalf("after re-append, journal holds %d entries, want 2", j3.Len())
	}
}

// TestJournalMissingFileResumes asserts -resume against a journal that was
// never written starts cleanly from zero.
func TestJournalMissingFileResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.journal")
	j, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 0 {
		t.Fatalf("missing journal loaded %d entries", j.Len())
	}
	s := NewSession(SessionOptions{Workers: 1, Journal: j})
	if s.Preloaded() != 0 {
		t.Fatalf("preloaded %d from a missing journal", s.Preloaded())
	}
}

// TestJournalRoundTripPreservesResult pins the entry codec: a result
// restored from its journal form carries the same measurements, idle
// histogram, metrics, and fault block.
func TestJournalRoundTripPreservesResult(t *testing.T) {
	c := faultyTiny().withDefaults()
	key := c.request("sar", power.KindDefault, true, "")
	s := NewSession(SessionOptions{Workers: 1})
	res, _, err := s.run(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRunRecord(res)
	buf, err := json.Marshal(storedRun{Request: key, Result: rec})
	if err != nil {
		t.Fatal(err)
	}
	var sr storedRun
	if err := json.Unmarshal(buf, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Request != key {
		t.Fatalf("key round-trip: %+v vs %+v", sr.Request, key)
	}
	back, err := sr.Result.Restore(sr.Request)
	if err != nil {
		t.Fatal(err)
	}
	if back.ExecTime != res.ExecTime || back.EnergyJ != res.EnergyJ ||
		back.DiskRequests != res.DiskRequests || back.SpinUps != res.SpinUps {
		t.Fatal("scalar measurements drifted through the journal")
	}
	if back.Idle.Count() != res.Idle.Count() || back.Idle.Mean() != res.Idle.Mean() || back.Idle.Max() != res.Idle.Max() {
		t.Fatal("idle histogram drifted through the journal")
	}
	if len(back.Metrics) != len(res.Metrics) {
		t.Fatalf("metrics: %d vs %d", len(back.Metrics), len(res.Metrics))
	}
	if back.Faults == nil || back.Faults.Total() != res.Faults.Total() {
		t.Fatal("fault block drifted through the journal")
	}
	// FracAtMost drives the CDF figures; spot-check one bound.
	if back.Idle.FracAtMost(500) != res.Idle.FracAtMost(500) {
		t.Fatal("idle CDF drifted through the journal")
	}
}

// TestOracleHonorsFaults asserts the oracle's inline passes run on the
// same cluster config as the cached runs: under injected faults, every
// "default (J)" cell equals the Default Scheme energy of the same Config
// (table3's baseline) at the table's rounding.
func TestOracleHonorsFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("three cluster passes per app")
	}
	e, err := ByID("oracle")
	if err != nil {
		t.Fatal(err)
	}
	c := faultyTiny().withDefaults()
	s := NewSession(SessionOptions{})
	res, err := s.Run(context.Background(), e, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(c.Apps) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(c.Apps))
	}
	for i, app := range c.Apps {
		base, err := runOne(context.Background(), s, c, app, power.KindDefault, false)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Rows[i][1], fmt.Sprintf("%.0f", base.EnergyJ); got != want {
			t.Errorf("%s: oracle default (J) = %s, Default Scheme run = %s", app, got, want)
		}
	}
}
