package mpiio

import (
	"testing"

	"sdds/internal/fault"
	"sdds/internal/ionode"
	"sdds/internal/loop"
	"sdds/internal/netsim"
	"sdds/internal/pool"
	"sdds/internal/sim"
	"sdds/internal/stripe"
	"sdds/internal/workloads"
)

// smallCacheStack builds a middleware over numNodes I/O nodes whose storage
// caches hold only a few units, so a rotating working set keeps missing
// and evicting.
func smallCacheStack(t *testing.T, eng *sim.Engine, numNodes int) (*Middleware, []*ionode.Node) {
	t.Helper()
	cfg := ionode.DefaultConfig()
	cfg.CacheBytes = 4 * cfg.UnitBytes
	nodes := make([]*ionode.Node, numNodes)
	for i := range nodes {
		nodes[i] = ionode.MustNew(eng, i, cfg)
	}
	m, err := New(eng, stripe.Layout{NumNodes: numNodes, StripeSize: cfg.UnitBytes}, nodes, netsim.MustNew(eng, netsim.DefaultConfig(numNodes)))
	if err != nil {
		t.Fatal(err)
	}
	return m, nodes
}

// TestReadWriteRoundTripAllocatesNothing pins the pooled request path: once
// the pools, the engine's event free list and the caches have warmed up, a
// fault-free write-then-read round trip over several stripe units — cache
// misses, evictions and prefetches included — allocates nothing.
func TestReadWriteRoundTripAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	m, _ := smallCacheStack(t, eng, 4)
	const fileSize = 4 << 20 // 64 units: 16 per node, 4 of them cacheable
	if _, err := m.Open(0, "data", fileSize); err != nil {
		t.Fatal(err)
	}
	completed := 0
	done := func(sim.Time, bool) { completed++ }
	var off int64
	roundTrip := func() {
		if err := m.Write(0, off, 192<<10, done); err != nil {
			t.Fatal(err)
		}
		if err := m.Read(0, off+(1<<20), 160<<10, done); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		off = (off + 328<<10) % fileSize
	}
	for i := 0; i < 500; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(500, roundTrip); allocs != 0 {
		t.Fatalf("round trip allocates %v objects, want 0", allocs)
	}
	if want := 2 * (500 + 501); completed != want {
		t.Fatalf("%d calls completed, want %d", completed, want)
	}
}

// TestFaultedCallsCompleteExactlyOnce is the pool-safety check of the
// "every issued I/O completes or is abandoned exactly once" invariant: it
// replays madbench2's whole I/O stream, each process closed-loop, through
// the middleware under a heavy mixed fault spec (node stalls, network
// drops, transient disk errors, failing spin-ups) with a single retry, so
// some calls exhaust it and degrade, and with ownership checking on every
// pool. Every call's done must fire exactly once, no pooled struct may be
// released twice or handed out while in flight (the checked pools panic),
// and every pool must be drained at the end.
func TestFaultedCallsCompleteExactlyOnce(t *testing.T) {
	fc, err := fault.ParseSpec("read=0.3,write=0.3,badsector=0.05,spinup-fail=0.2,net-drop=0.1,net-dup=0.05,stall=0.1,retries=1,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workloads.ByName("madbench2")
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Build(0.05)
	const procs = 8

	checker := pool.Check()
	defer checker.Stop()
	eng := sim.NewEngine(42)
	inj := fault.NewInjector(fc, 42)
	eng.SetFaults(inj)
	m, _ := smallCacheStack(t, eng, 8)
	checker.Stop()
	for _, f := range prog.Files {
		if _, err := m.Open(f.ID, f.Name, f.Size); err != nil {
			t.Fatal(err)
		}
	}

	insts := prog.Instances(procs)
	fired := make([]int, len(insts))
	perProc := make([][]int, procs) // instance indices, in program order
	for i, in := range insts {
		perProc[in.Proc] = append(perProc[in.Proc], i)
	}
	failed := 0
	var issue func(p, k int)
	issue = func(p, k int) {
		if k == len(perProc[p]) {
			return
		}
		i := perProc[p][k]
		in := insts[i]
		done := func(now sim.Time, ok bool) {
			fired[i]++
			if !ok {
				failed++
			}
			issue(p, k+1)
		}
		call := m.Read
		if in.Kind == loop.StmtWrite {
			call = m.Write
		}
		if err := call(in.File, in.Offset, in.Length, done); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
	for p := range perProc {
		issue(p, 0)
	}
	eng.Run()

	for i, n := range fired {
		if n != 1 {
			t.Fatalf("instance %d (%+v): done fired %d times, want exactly 1", i, insts[i], n)
		}
	}
	if st := inj.Stats(); st.Count(fault.SiteNodeStall) == 0 || st.Count(fault.SiteNetDrop) == 0 || st.Count(fault.SiteDiskRead) == 0 {
		t.Fatalf("fault mix too thin to exercise the retry paths: %+v", st)
	}
	if retries, _, _ := m.FaultStats(); retries == 0 || failed == 0 {
		t.Fatalf("%d chunk retries, %d degraded calls: the retry and abandonment paths went unexercised", retries, failed)
	}
	if want := 1 + 1 + 3*8; checker.Pools() != want {
		t.Fatalf("%d checked pools, want %d", checker.Pools(), want)
	}
	if live := checker.Live(); live != 0 {
		t.Fatalf("%d pooled request structs never released", live)
	}
}
