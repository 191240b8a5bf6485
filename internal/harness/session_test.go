package harness

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"sdds/internal/probe"
)

// stressExperiments is a fully-plannable overlapping experiment set (no
// inline, uncached passes): the policy figures share the baselines, fig13a
// shares fig12c's whole plan.
func stressExperiments(t *testing.T) []Experiment {
	t.Helper()
	var exps []Experiment
	for _, id := range []string{"table3", "fig12a", "fig12b", "fig12c", "fig13a"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	return exps
}

func renderAll(results []*Result) string {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.Render())
	}
	return b.String()
}

// TestSessionParallelMatchesSerial asserts the parallel engine is
// invisible in the output: a 1-worker session and an 8-worker session
// produce byte-identical tables.
func TestSessionParallelMatchesSerial(t *testing.T) {
	exps := stressExperiments(t)
	cfg := tiny()

	serial, err := NewSession(SessionOptions{Workers: 1}).RunAll(context.Background(), exps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewSession(SessionOptions{Workers: 8}).RunAll(context.Background(), exps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderAll(parallel), renderAll(serial); got != want {
		t.Fatalf("parallel output diverges from serial:\n--- parallel ---\n%s\n--- serial ---\n%s", got, want)
	}
}

// TestSessionConcurrentStress runs overlapping experiment batches on ONE
// session from several goroutines (meaningful under -race) and asserts
// (a) every goroutine sees the same tables as a serial run (determinism
// despite scheduling order) and (b) the session simulated exactly the
// planned distinct-key count — singleflight deduplication let nothing run
// twice.
func TestSessionConcurrentStress(t *testing.T) {
	exps := stressExperiments(t)
	cfg := tiny()

	serial, err := NewSession(SessionOptions{Workers: 1}).RunAll(context.Background(), exps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(serial)

	s := NewSession(SessionOptions{Workers: 4})
	const goroutines = 4
	outs := make([]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Overlap: each goroutine starts the batch at a different
			// experiment so plans interleave mid-flight.
			rot := append(append([]Experiment{}, exps[g%len(exps):]...), exps[:g%len(exps)]...)
			results, err := s.RunAll(context.Background(), rot, cfg)
			if err != nil {
				errs[g] = err
				return
			}
			byID := make(map[string]*Result, len(results))
			for _, r := range results {
				byID[r.ID] = r
			}
			ordered := make([]*Result, 0, len(exps))
			for _, e := range exps {
				ordered = append(ordered, byID[e.ID])
			}
			outs[g] = renderAll(ordered)
		}()
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if outs[g] != want {
			t.Fatalf("goroutine %d output diverges from serial run", g)
		}
	}

	planned := len(PlanRequests(exps, cfg))
	if got := s.MemoSize(); got != planned {
		t.Fatalf("MemoSize = %d, want planned distinct-key count %d", got, planned)
	}
	simulated, hits := s.Stats()
	if simulated != int64(planned) {
		t.Fatalf("simulated %d configurations, want exactly %d (duplicate simulations)", simulated, planned)
	}
	if hits == 0 {
		t.Fatal("no cache hits despite overlapping batches")
	}
}

// TestSessionPlanDedup checks cross-experiment plan deduplication:
// fig14b's θ sweep points are a subset of fig14a's.
func TestSessionPlanDedup(t *testing.T) {
	c := tiny().withDefaults()
	a, _ := ByID("fig14a")
	b, _ := ByID("fig14b")
	na := len(PlanRequests([]Experiment{a}, c))
	nb := len(PlanRequests([]Experiment{b}, c))
	both := len(PlanRequests([]Experiment{a, b}, c))
	if nb == 0 || na == 0 {
		t.Fatalf("empty plans: fig14a=%d fig14b=%d", na, nb)
	}
	if both != na {
		t.Fatalf("union plan = %d, want %d (fig14b [%d specs] must dedup into fig14a's plan)", both, na, nb)
	}
	// fig13a shares fig12c's entire plan.
	c12, _ := ByID("fig12c")
	c13, _ := ByID("fig13a")
	if n := len(PlanRequests([]Experiment{c12, c13}, c)); n != len(PlanRequests([]Experiment{c12}, c)) {
		t.Fatalf("fig13a added %d specs beyond fig12c's plan", n-len(PlanRequests([]Experiment{c12}, c)))
	}
}

// TestSessionCancellation checks both the pre-cancelled fast path and
// prompt mid-run abort.
func TestSessionCancellation(t *testing.T) {
	exps := stressExperiments(t)
	cfg := tiny()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSession(SessionOptions{Workers: 2})
	if _, err := s.RunAll(ctx, exps, cfg); err == nil {
		t.Fatal("RunAll accepted a cancelled context")
	}
	if n := s.MemoSize(); n != 0 {
		t.Fatalf("cancelled run left %d memo entries", n)
	}

	// Mid-run: cancel shortly after start; RunAll must return quickly.
	ctx2, cancel2 := context.WithCancel(context.Background())
	s2 := NewSession(SessionOptions{Workers: 2})
	done := make(chan error, 1)
	go func() {
		_, err := s2.RunAll(ctx2, exps, Config{Scale: 0.1, Apps: []string{"wupwise"}, Seed: 1})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel2()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled mid-run yet RunAll returned nil")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunAll did not abort promptly after cancellation")
	}
}

// TestSessionProgressEvents checks the observability hook: one event per
// planned run, Done climbing to Total, hits flagged on re-resolution.
func TestSessionProgressEvents(t *testing.T) {
	e, err := ByID("table3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tiny()
	var mu sync.Mutex
	var events []Progress
	s := NewSession(SessionOptions{Workers: 2, Progress: func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}})
	if _, err := s.Run(context.Background(), e, cfg); err != nil {
		t.Fatal(err)
	}
	planned := len(PlanRequests([]Experiment{e}, cfg))
	if len(events) != planned {
		t.Fatalf("%d progress events, want %d", len(events), planned)
	}
	last := events[len(events)-1]
	if last.Done != planned || last.Total != planned {
		t.Fatalf("final event = %+v, want Done=Total=%d", last, planned)
	}
	// A second run of the same experiment resolves purely from cache.
	events = events[:0]
	if _, err := s.Run(context.Background(), e, cfg); err != nil {
		t.Fatal(err)
	}
	for _, p := range events {
		if !p.Hit {
			t.Fatalf("expected all-hit rerun, got %+v", p)
		}
	}
	if _, hits := s.Stats(); hits == 0 {
		t.Fatal("no hits recorded on rerun")
	}
}

// TestSessionProbeAndMetrics checks the tracing hooks: every executed run
// carries its metrics snapshot in Progress, and the session's span probe
// collects the plan span, per-run worker spans, and the cluster runner's
// simulate spans without racing (the worker pool is concurrent).
func TestSessionProbeAndMetrics(t *testing.T) {
	e, err := ByID("table3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tiny()
	pr := probe.NewSpanProbe()
	var mu sync.Mutex
	var events []Progress
	s := NewSession(SessionOptions{Workers: 2, Probe: pr, Progress: func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}})
	if _, err := s.Run(context.Background(), e, cfg); err != nil {
		t.Fatal(err)
	}
	for _, p := range events {
		if p.Err == nil && len(p.Metrics) == 0 {
			t.Fatalf("run %q delivered no metrics", p.Key)
		}
		for _, m := range p.Metrics {
			if m.Name == "exec.time_s" && m.Value <= 0 {
				t.Fatalf("run %q exec.time_s = %v", p.Key, m.Value)
			}
		}
	}
	// Spans: plan + one per run + simulate per executed run, all closed.
	if n := pr.SpanCount(); n < 1+len(events) {
		t.Fatalf("span count = %d, want >= %d (plan + per-run)", n, 1+len(events))
	}
	if pr.Emitted() != 0 {
		t.Fatal("span-only probe must not record ring events")
	}
}
