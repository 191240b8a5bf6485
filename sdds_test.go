package sdds_test

import (
	"context"
	"sync"
	"testing"

	"sdds"
	"sdds/internal/sim"
)

// TestPublicFacadeScheduling drives the paper's core contribution through
// the public API only.
func TestPublicFacadeScheduling(t *testing.T) {
	layout := sdds.DefaultLayout()
	s, err := sdds.NewScheduler(sdds.DefaultSchedulerParams(50, layout.NumNodes))
	if err != nil {
		t.Fatal(err)
	}
	var accs []*sdds.Access
	for i := 0; i < 12; i++ {
		accs = append(accs, &sdds.Access{
			ID: i, Proc: i % 3, Begin: 0, End: 40, Length: 1,
			Sig:  layout.SignatureFor(int64(i)*(64<<10), 256<<10),
			Orig: 40,
		})
	}
	schedule, err := s.Schedule(accs)
	if err != nil {
		t.Fatal(err)
	}
	if schedule.Len() != 12 {
		t.Fatalf("scheduled %d of 12", schedule.Len())
	}
	if _, err := schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, proc := range schedule.Procs() {
		if len(schedule.Table(proc)) == 0 {
			t.Fatalf("process %d has an empty table", proc)
		}
	}
}

// TestPublicFacadeCompileAndRun compiles and executes a small program
// through the facade.
func TestPublicFacadeCompileAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run")
	}
	w, err := sdds.WorkloadByName("madbench2")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(0.02)
	res, err := sdds.Compile(p, sdds.DefaultCompileOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accesses) == 0 {
		t.Fatal("no accesses")
	}
	cfg := sdds.DefaultClusterConfig()
	cfg.Procs = 8
	cfg.Policy = sdds.PolicyConfig{Kind: sdds.PolicyHistory}
	cfg.Scheduling = true
	out, err := sdds.Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.EnergyJ <= 0 || out.ExecTime <= sim.Duration(0) {
		t.Fatal("degenerate run")
	}
}

func TestPublicFacadeRegistries(t *testing.T) {
	if len(sdds.Workloads()) != 6 {
		t.Fatalf("workloads = %d", len(sdds.Workloads()))
	}
	if len(sdds.Experiments()) == 0 {
		t.Fatal("no experiments")
	}
	if _, err := sdds.ExperimentByID("fig12c"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdds.ExperimentByID("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	kinds := []sdds.PolicyKind{sdds.PolicyDefault, sdds.PolicySimple,
		sdds.PolicyPredictive, sdds.PolicyHistory, sdds.PolicyStaggered}
	seen := map[sdds.PolicyKind]bool{}
	for _, k := range kinds {
		if seen[k] {
			t.Fatalf("duplicate policy kind %v", k)
		}
		seen[k] = true
	}
}

// TestPublicFacadeSession exercises the parallel experiment engine through
// the public API: an explicit session, a worker bound, a progress stream,
// and context-aware cancellation.
func TestPublicFacadeSession(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster runs")
	}
	var events int
	var mu sync.Mutex
	s := sdds.NewSession(sdds.SessionOptions{Workers: 2, Progress: func(p sdds.Progress) {
		mu.Lock()
		events++
		mu.Unlock()
	}})
	e, err := sdds.ExperimentByID("table3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sdds.HarnessConfig{Scale: 0.02, Apps: []string{"sar", "madbench2"}, Seed: 1}
	res, err := s.Run(context.Background(), e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if s.MemoSize() == 0 || events == 0 {
		t.Fatalf("memo = %d, events = %d; want both positive", s.MemoSize(), events)
	}

	// Cancellation through the facade.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx, e, cfg); err == nil {
		t.Fatal("cancelled context accepted")
	}
	w, err := sdds.WorkloadByName("madbench2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sdds.RunContext(ctx, w.Build(0.02), sdds.DefaultClusterConfig()); err == nil {
		t.Fatal("RunContext accepted a cancelled context")
	}
	if _, err := sdds.CompileContext(ctx, w.Build(0.02), sdds.DefaultCompileOptions(8)); err == nil {
		t.Fatal("CompileContext accepted a cancelled context")
	}
}

// TestPublicFacadeExperimentRunContext runs an experiment looked up through
// the facade on a fresh session, honouring the context: a live one renders
// the table, a cancelled one is refused.
func TestPublicFacadeExperimentRunContext(t *testing.T) {
	e, err := sdds.ExperimentByID("table2")
	if err != nil {
		t.Fatal(err)
	}
	s := sdds.NewSession(sdds.SessionOptions{})
	res, err := s.Run(context.Background(), e, sdds.HarnessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "table2" || len(res.Rows) == 0 {
		t.Fatalf("table2 result = %+v", res)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx, e, sdds.HarnessConfig{}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
