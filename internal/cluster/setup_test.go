package cluster

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sdds/internal/compilecache"
	"sdds/internal/compiler"
	"sdds/internal/fault"
	"sdds/internal/power"
	"sdds/internal/workloads"
)

// A Setup built once must be shareable across concurrent RunPrepared calls
// without perturbing determinism: every run over the same config must match
// a plain Run, and runs over different configs must not interfere.
func TestRunPreparedSharedSetup(t *testing.T) {
	prog := workloads.HF(0.02)
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Scheduling = true

	baseline, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(goldenFingerprint(baseline), "\n")

	setup, err := NewSetup(prog, cfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	cache := compilecache.New()

	const n = 8
	var wg sync.WaitGroup
	results := make([]*Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			c.CompileCache = cache
			results[i], errs[i] = RunPrepared(context.Background(), setup, c)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		got := strings.Join(goldenFingerprint(results[i]), "\n")
		if got != want {
			t.Errorf("run %d diverged from plain Run:\n%s\nwant:\n%s", i, got, want)
		}
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("cache stats = %+v, want 1 miss / %d hits", st, n-1)
	}
}

// RunPrepared must reject a config whose Procs disagrees with the Setup —
// the IO index and slot metadata are functions of Procs.
func TestRunPreparedProcsMismatch(t *testing.T) {
	prog := workloads.HF(0.02)
	cfg := DefaultConfig()
	setup, err := NewSetup(prog, cfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Procs = cfg.Procs * 2
	if _, err := RunPrepared(context.Background(), setup, cfg); err == nil {
		t.Fatal("procs mismatch accepted")
	}
}

// NewSetup builds its I/O index from two passes over the program's
// instances, so its allocations do not grow with the instance count.
func TestNewSetupAllocsIndependentOfScale(t *testing.T) {
	// The process's first collection allocates its mark workers; run it
	// before measuring so it cannot land inside one scale's window.
	runtime.GC()
	procs := DefaultConfig().Procs
	for _, spec := range workloads.All() {
		var allocs [2]float64
		for i, scale := range []float64{0.02, 0.15} {
			prog := spec.Build(scale)
			allocs[i] = testing.AllocsPerRun(3, func() {
				if _, err := NewSetup(prog, procs); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: NewSetup made %v allocations at scale 0.02 and %v at 0.15, want equal", spec.Name, allocs[0], allocs[1])
		}
	}
}

// Runtime knobs — seed, power policy, buffer capacity, fault injection —
// must not move the compile key: a sweep over them shares one artifact.
// The key is computed from the normalized config, which is what the run
// path hands to the cache.
func TestCompileKeyExcludesRuntimeKnobs(t *testing.T) {
	prog := workloads.HF(0.02)
	base := DefaultConfig()
	base.Scheduling = true
	baseKey, ok := compiler.KeyFor(prog, base.normalized().Compiler)
	if !ok {
		t.Fatal("workload uncacheable")
	}

	variants := map[string]func(*Config){
		"seed":    func(c *Config) { c.Seed = 999 },
		"policy":  func(c *Config) { c.Policy = power.Config{Kind: power.KindHistory} },
		"buffer":  func(c *Config) { c.BufferBytes = 32 << 20 },
		"faults":  func(c *Config) { fc := fault.DefaultConfig(); c.Faults = &fc },
		"hittime": func(c *Config) { c.BufferHitTime = base.BufferHitTime * 2 },
	}
	for name, mut := range variants {
		c := base
		mut(&c)
		k, ok := compiler.KeyFor(prog, c.normalized().Compiler)
		if !ok {
			t.Fatalf("%s: uncacheable", name)
		}
		if k != baseKey {
			t.Errorf("%s: runtime knob moved the compile key", name)
		}
	}

	// And a genuinely semantic knob does move it.
	c := base
	c.Compiler.Theta = 16
	if k, _ := compiler.KeyFor(prog, c.normalized().Compiler); k == baseKey {
		t.Error("theta change did not move the compile key")
	}
}
