package cluster_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sdds/internal/cluster"
	"sdds/internal/harness"
	"sdds/internal/ionode"
	"sdds/internal/power"
	"sdds/internal/probe"
	"sdds/internal/workloads"
)

// recycleCase is one run of the differential sequence: a request in the
// harness grammar plus the node shapes its variants cannot name.
type recycleCase struct {
	req    harness.Request
	shape  string
	traced bool
}

// recycleShapes are the cluster shapes the sequence cycles through: the
// Table II default, every variant that resizes the machine, and the RAID5
// and write-back nodes of the sensitivity experiments.
var recycleShapes = []string{"", "nodes=4", "cache=32MB", "pacache", "procs=16", "raid5", "nodes=16", "writeback", "cache=256MB"}

// recycleSequence is a seeded sequence of 48 configs: all six apps at 2%,
// every policy kind with every app, scheduling, faults and tracing on and
// off, and every shape. Case 0 is traced and case 1 not; case 2 is
// faulted and case 3 not.
func recycleSequence() []recycleCase {
	kinds := append(power.AllKinds(), power.KindOracle)
	apps := workloads.Names()
	rng := rand.New(rand.NewSource(20))
	cases := make([]recycleCase, 48)
	for i := range cases {
		c := recycleCase{
			req: harness.Request{
				App:        apps[i%len(apps)],
				Policy:     kinds[(i/len(apps))%len(kinds)].String(),
				Scheduling: rng.Intn(2) == 1,
				Scale:      0.02,
				Seed:       int64(1 + rng.Intn(100)),
			},
			shape:  recycleShapes[i%len(recycleShapes)],
			traced: rng.Intn(2) == 1,
		}
		if rng.Intn(3) == 0 {
			c.req.Faults = "read=0.02,write=0.02,spinup-fail=0.1,net-drop=0.01,stall=0.01,seed=5"
		}
		cases[i] = c
	}
	cases[0].traced, cases[1].traced = true, false
	cases[2].req.Faults, cases[3].req.Faults = "read=0.05,stall=0.02,seed=9", ""
	return cases
}

// build resolves a case to its program and config.
func (c recycleCase) build(t *testing.T) (*cluster.Setup, cluster.Config) {
	t.Helper()
	req := c.req
	switch c.shape {
	case "raid5", "writeback":
	default:
		req.Variant = c.shape
	}
	prog, cfg, err := req.BuildRun()
	if err != nil {
		t.Fatal(err)
	}
	switch c.shape {
	case "raid5":
		cfg.Node.Members, cfg.Node.Level = 3, ionode.RAID5
	case "writeback":
		cfg.Node.WriteBack = true
	}
	if c.traced {
		cfg.Probe = probe.NewProbe(1 << 12)
	}
	setup, err := cluster.NewSetup(prog, cfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	return setup, cfg
}

// digest renders everything a run reports: its golden fingerprint and its
// persisted record.
func digest(t *testing.T, res *cluster.Result) string {
	t.Helper()
	rec, err := json.Marshal(harness.NewRunRecord(res))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(cluster.Fingerprint(res), "\n") + "\n" + string(rec)
}

// TestRecycledMachinesMatchFresh runs the sequence back to back on
// recycled machines, then each config again on a freshly built machine:
// every Result must be identical. A recycled run must also leave nothing
// behind: an untraced run after a traced one emits nothing into the
// traced run's probe.
func TestRecycledMachinesMatchFresh(t *testing.T) {
	ctx := context.Background()
	cases := recycleSequence()
	covered := map[string]bool{}
	recycled := make([]string, len(cases))
	var lastProbe *probe.Probe
	var lastEmitted uint64
	cluster.DropIdleMachines()
	for i, c := range cases {
		setup, cfg := c.build(t)
		res, err := cluster.RunPrepared(ctx, setup, cfg)
		if err != nil {
			t.Fatalf("case %d %+v: %v", i, c, err)
		}
		recycled[i] = digest(t, res)
		if lastProbe != nil && lastProbe.Emitted() != lastEmitted {
			t.Errorf("case %d %+v emitted %d records into the previous run's probe", i, c, lastProbe.Emitted()-lastEmitted)
		}
		lastProbe = nil
		if c.traced {
			lastProbe, lastEmitted = cfg.Probe, cfg.Probe.Emitted()
		}
		// One machine serves the whole sequence, except that the
		// cache=256MB run drops it and the next run builds another.
		want := 1
		if c.shape == "cache=256MB" {
			want = 0
		}
		if n := cluster.IdleMachines(); n != want {
			t.Errorf("case %d %+v left %d idle machines, want %d", i, c, n, want)
		}
		covered["policy="+c.req.Policy] = true
		covered["shape="+c.shape] = true
		covered["sched="+map[bool]string{false: "off", true: "on"}[c.req.Scheduling]] = true
		covered["faults="+map[bool]string{false: "off", true: "on"}[c.req.Faults != ""]] = true
		covered["traced="+map[bool]string{false: "off", true: "on"}[c.traced]] = true
	}
	if want := 6 + len(recycleShapes) + 2*3; len(covered) != want {
		t.Fatalf("sequence covers %d of %d policies, shapes and switches: %v", len(covered), want, covered)
	}
	for i, c := range cases {
		cluster.DropIdleMachines()
		setup, cfg := c.build(t)
		res, err := cluster.RunPrepared(ctx, setup, cfg)
		if err != nil {
			t.Fatalf("case %d %+v on a fresh machine: %v", i, c, err)
		}
		if got := digest(t, res); got != recycled[i] {
			t.Errorf("case %d %+v: recycled machine reported\n%s\nfresh machine\n%s", i, c, recycled[i], got)
		}
	}
}

// An idle machine pins nothing of its last run: once the run's Setup,
// Result and probe are dropped, they are collectable while the machine
// sits on the free list. And a machine whose caches a cache= variant sized past Table
// II is dropped, not kept.
func TestIdleMachineRetainsNothing(t *testing.T) {
	ctx := context.Background()
	var setupFreed, resultFreed, compileFreed, probeFreed atomic.Bool
	freed := func() bool {
		return setupFreed.Load() && resultFreed.Load() && compileFreed.Load() && probeFreed.Load()
	}
	func() {
		cfg := cluster.DefaultConfig()
		cfg.Scheduling = true
		cfg.Probe = probe.NewProbe(1 << 12)
		setup, err := cluster.NewSetup(workloads.HF(0.02), cfg.Procs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cluster.RunPrepared(ctx, setup, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(setup, func(*cluster.Setup) { setupFreed.Store(true) })
		runtime.SetFinalizer(res, func(*cluster.Result) { resultFreed.Store(true) })
		runtime.SetFinalizer(res.Compile, func(any) { compileFreed.Store(true) })
		runtime.SetFinalizer(cfg.Probe, func(*probe.Probe) { probeFreed.Store(true) })
	}()
	if cluster.IdleMachines() == 0 {
		t.Fatal("the run left no idle machine")
	}
	for i := 0; i < 50 && !freed(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !freed() {
		t.Fatalf("with a machine idle, setup freed %v, result freed %v, compile freed %v, probe freed %v",
			setupFreed.Load(), resultFreed.Load(), compileFreed.Load(), probeFreed.Load())
	}

	cluster.DropIdleMachines()
	cfg := cluster.DefaultConfig()
	cfg.Node.CacheBytes = 256 << 20
	if _, err := cluster.Run(workloads.HF(0.02), cfg); err != nil {
		t.Fatal(err)
	}
	if n := cluster.IdleMachines(); n != 0 {
		t.Fatalf("a cache=256MB run left %d idle machines", n)
	}
}

// maxRecycledRunBytes bounds the heap bytes of a run on a recycled machine
// that has run its config before: the per-run state (policies, idle
// histogram, metric registry, Result) is about 8 KB, while one node's
// storage-cache slab and index alone are about 49 KB, and a fresh machine
// 0.4–0.7 MB.
const maxRecycledRunBytes = 32 << 10

// Once a machine has run a config, running it again allocates only the
// per-run state, whose size does not depend on the program's: the same
// count at scales 0.02 and 0.15, for every app, and fewer bytes than one
// storage-cache slab. Scheduling is off: the global buffer and the agents
// are per run and grow with the program.
func TestRecycledRunAllocsIndependentOfScale(t *testing.T) {
	ctx := context.Background()
	cfg := cluster.DefaultConfig()
	cfg.Policy = power.Config{Kind: power.KindHistory}
	for _, spec := range workloads.All() {
		var allocs [2]float64
		for i, scale := range []float64{0.02, 0.15} {
			setup, err := cluster.NewSetup(spec.Build(scale), cfg.Procs)
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := cluster.RunPrepared(ctx, setup, cfg); err != nil {
					t.Fatal(err)
				}
			}
			run()
			// The process's first collection allocates its mark workers;
			// run it before measuring.
			runtime.GC()
			allocs[i] = testing.AllocsPerRun(3, run)
			if b := bytesPerRun(3, run); b > maxRecycledRunBytes {
				t.Errorf("%s at scale %v: a recycled run allocated %d bytes, want at most %d", spec.Name, scale, b, maxRecycledRunBytes)
			}
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: a recycled run made %v allocations at scale 0.02 and %v at 0.15, want equal", spec.Name, allocs[0], allocs[1])
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for heap bytes: the average over
// runs calls of f, after one warm-up call, on one P.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
