package cache

import (
	"runtime"
	"testing"
)

// TestStorageGeometryAllocatesOnce pins the I/O node's storage-cache
// geometry, 64 MB of 64 KB blocks, on both caches. The first Put sizes the
// index and the slab, one allocation each. Filling the cache and then
// churning 100k Put+Get pairs through a working set three times its size
// must allocate nothing more. A Go map index reallocates on this path, both
// as it grows and as LRU churn leaves it full of deleted entries.
func TestStorageGeometryAllocatesOnce(t *testing.T) {
	const capacity, block = 64 << 20, 64 << 10
	// MemStats counts every goroutine's allocations: hold one P across the
	// windows, as testing.AllocsPerRun does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pal, err := NewPALRU(capacity, func(k Key) bool { return k.Block%3 != 0 }, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Store{MustNew(capacity), pal} {
		var start, sized, end runtime.MemStats
		runtime.ReadMemStats(&start)
		c.Put(Key{File: 1, Block: 0}, block)
		runtime.ReadMemStats(&sized)
		for b := int64(1); b < capacity/block; b++ {
			c.Put(Key{File: 1, Block: b}, block)
		}
		const working = 3 * capacity / block
		for i := int64(0); i < 100_000; i++ {
			c.Put(Key{File: int(i & 1), Block: i * 7919 % working}, block)
			c.Get(Key{File: int(i&2) >> 1, Block: i * 104729 % working})
		}
		runtime.ReadMemStats(&end)
		if n := sized.Mallocs - start.Mallocs; n > 2 {
			t.Errorf("%T: first Put made %d allocations, want at most 2 (index and slab)", c, n)
		}
		if n := end.Mallocs - sized.Mallocs; n != 0 {
			t.Errorf("%T: fill and 100k Put+Get pairs made %d allocations, want 0", c, n)
		}
		if c.Len() != capacity/block {
			t.Errorf("%T: Len = %d, want a full cache of %d blocks", c, c.Len(), capacity/block)
		}
		if hits, misses, evictions := c.Stats(); hits == 0 || misses == 0 || evictions == 0 {
			t.Errorf("%T: hits=%d misses=%d evictions=%d: churn not exercised", c, hits, misses, evictions)
		}
		// A reset cache keeps its slab and index: it starts empty and
		// fills again without allocating.
		switch c := c.(type) {
		case *LRU:
			err = c.Reset(capacity)
		case *PALRU:
			err = c.Reset(capacity, nil, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		if hits, _, _ := c.Stats(); c.Len() != 0 || c.Used() != 0 || hits != 0 {
			t.Errorf("%T: after Reset Len=%d Used=%d hits=%d, want an empty cache", c, c.Len(), c.Used(), hits)
		}
		runtime.ReadMemStats(&start)
		for b := int64(0); b < 2*capacity/block; b++ {
			c.Put(Key{File: 2, Block: b}, block)
		}
		runtime.ReadMemStats(&end)
		if n := end.Mallocs - start.Mallocs; n != 0 || c.Len() != capacity/block {
			t.Errorf("%T: refilling after Reset made %d allocations (Len %d), want 0", c, n, c.Len())
		}
	}
}

// TestPresizeIsCapped pins the bound on the first Put's sizing: a huge
// capacity (a `cache=` variant is user input) met by a tiny block reserves
// room for maxPresize entries, not capacity ÷ size, and the slab and index
// then grow by doubling with the working set.
func TestPresizeIsCapped(t *testing.T) {
	c := MustNew(1 << 40)
	c.Put(Key{Block: 0}, 1)
	if cap(c.slab) != maxPresize || len(c.index) != tableSize(maxPresize) {
		t.Fatalf("first Put reserved %d slots and %d cells, want %d and %d",
			cap(c.slab), len(c.index), maxPresize, tableSize(maxPresize))
	}
	const n = maxPresize + maxPresize/2
	for b := int64(1); b < n; b++ {
		c.Put(Key{Block: b}, 1)
	}
	if c.Len() != n || c.Used() != n || len(c.index) != 2*tableSize(maxPresize) {
		t.Fatalf("Len=%d Used=%d cells=%d, want %d, %d and %d", c.Len(), c.Used(), len(c.index), n, n, 2*tableSize(maxPresize))
	}
	for b := int64(0); b < n; b++ {
		if !c.Contains(Key{Block: b}) {
			t.Fatalf("block %d lost across growth", b)
		}
	}
}
