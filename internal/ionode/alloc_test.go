package ionode

import (
	"testing"

	"sdds/internal/sim"
)

// TestReadHitAndMissAllocateNothing pins the pooled member-request path:
// after warm-up, cache hits, misses that fetch from the member disks,
// stride prefetches, evictions and write-throughs all complete without
// allocating.
func TestReadHitAndMissAllocateNothing(t *testing.T) {
	eng, n := testNode(t, func(c *Config) { c.CacheBytes = 4 * c.UnitBytes })
	completed := 0
	done := func(sim.Time, bool) { completed++ }
	var unit int64
	op := func() {
		// A sequential sweep over 32 units against a 4-unit cache: stride
		// prefetch turns most reads into hits, the wrap-around misses, and
		// the write-through evicts.
		unit = (unit + 1) % 32
		if err := n.Read(1, unit, 0, 4096, done); err != nil {
			t.Fatal(err)
		}
		if err := n.Write(2, unit, 0, 8192, done); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	for i := 0; i < 200; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(500, op); allocs != 0 {
		t.Fatalf("hit+miss+write allocates %v objects, want 0", allocs)
	}
	hits, misses, evictions := n.CacheStats()
	if hits == 0 || misses == 0 || evictions == 0 || n.Stats().PrefetchIssued == 0 {
		t.Fatalf("hits=%d misses=%d evictions=%d prefetches=%d: path not exercised",
			hits, misses, evictions, n.Stats().PrefetchIssued)
	}
	if want := 2 * 701; completed != want {
		t.Fatalf("%d requests completed, want %d", completed, want)
	}
}
