package cluster

import (
	"testing"

	"sdds/internal/fault"
	"sdds/internal/pool"
	"sdds/internal/workloads"
)

// TestScheduledFaultedRunDrainsPools runs madbench2 end to end — runtime
// scheduler agents prefetching through the middleware — under a heavy mixed
// fault spec with node stalls and network drops, with ownership checking on
// every request pool the run builds. A pooled struct released twice or
// handed out while still in flight panics inside the run; one never
// released (an I/O that neither completed nor was abandoned) leaves its
// pool's live count above zero.
func TestScheduledFaultedRunDrainsPools(t *testing.T) {
	fc, err := fault.ParseSpec("read=0.2,write=0.2,badsector=0.05,spinup-fail=0.2,spinup-delay=0.1,net-drop=0.1,net-dup=0.05,stall=0.1,retries=1,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workloads.ByName("madbench2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = goldenSeed
	cfg.Scheduling = true
	cfg.Faults = fc

	checker := pool.Check()
	defer checker.Stop()
	res, err := Run(spec.Build(goldenScale), cfg)
	checker.Stop()
	if err != nil {
		t.Fatal(err)
	}
	// One middleware (calls, chunks), three per I/O node, one per agent.
	if want := 2 + 3*cfg.Layout.NumNodes + cfg.Procs; checker.Pools() != want {
		t.Fatalf("%d checked pools, want %d", checker.Pools(), want)
	}
	if live := checker.Live(); live != 0 {
		t.Fatalf("%d pooled request structs never released", live)
	}
	fs := res.Faults
	if fs.Injected[fault.SiteNodeStall] == 0 || fs.Injected[fault.SiteNetDrop] == 0 || fs.NodeRetriesExhausted == 0 {
		t.Fatalf("fault mix too thin: %+v", fs)
	}
	if res.AgentIssued == 0 {
		t.Fatal("no prefetches issued: the agent pools went unexercised")
	}
}
