package cache

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := New(-5); err == nil {
		t.Fatal("negative capacity accepted")
	}
	c, err := New(100)
	if err != nil || c.Capacity() != 100 {
		t.Fatalf("New(100) = %v, %v", c, err)
	}
}

// evictedBy puts k into c and returns the keys the Put evicted, least
// recently used first.
func evictedBy(c interface {
	Store
	Keys() []Key
}, k Key, size int64) ([]Key, bool) {
	before := c.Keys()
	ok := c.Put(k, size)
	var out []Key
	for i := len(before) - 1; i >= 0; i-- {
		if !c.Contains(before[i]) {
			out = append(out, before[i])
		}
	}
	return out, ok
}

func TestPutGetRemove(t *testing.T) {
	c := MustNew(100)
	k := Key{File: 1, Block: 7}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	if ok := c.Put(k, 40); !ok {
		t.Fatal("Put failed")
	}
	if size, ok := c.Get(k); !ok || size != 40 {
		t.Fatalf("Get = %d, %v", size, ok)
	}
	if c.Used() != 40 || c.Len() != 1 {
		t.Fatalf("Used=%d Len=%d", c.Used(), c.Len())
	}
	if !c.Remove(k) {
		t.Fatal("Remove missed")
	}
	if c.Remove(k) {
		t.Fatal("double Remove succeeded")
	}
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatalf("after remove: Used=%d Len=%d", c.Used(), c.Len())
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestEvictionOrder(t *testing.T) {
	c := MustNew(100)
	for i := int64(0); i < 4; i++ {
		c.Put(Key{Block: i}, 25)
	}
	// Touch block 0 so block 1 becomes LRU.
	c.Get(Key{Block: 0})
	evicted, ok := evictedBy(c, Key{Block: 9}, 30)
	if !ok {
		t.Fatal("Put failed")
	}
	if len(evicted) != 2 || evicted[0] != (Key{Block: 1}) || evicted[1] != (Key{Block: 2}) {
		t.Fatalf("evicted = %v, want blocks 1 then 2", evicted)
	}
	if c.Used() > c.Capacity() {
		t.Fatalf("over capacity: %d", c.Used())
	}
}

func TestPutUpdatesSize(t *testing.T) {
	c := MustNew(100)
	c.Put(Key{Block: 1}, 30)
	c.Put(Key{Block: 1}, 50)
	if c.Used() != 50 || c.Len() != 1 {
		t.Fatalf("Used=%d Len=%d after resize", c.Used(), c.Len())
	}
}

func TestOversizedRejected(t *testing.T) {
	c := MustNew(100)
	if ok := c.Put(Key{Block: 1}, 101); ok {
		t.Fatal("oversized block accepted")
	}
	if ok := c.Put(Key{Block: 1}, 0); ok {
		t.Fatal("zero-size block accepted")
	}
	if ok := c.Put(Key{Block: 1}, 100); !ok {
		t.Fatal("exact-capacity block rejected")
	}
}

func TestContainsDoesNotPromote(t *testing.T) {
	c := MustNew(50)
	c.Put(Key{Block: 1}, 25)
	c.Put(Key{Block: 2}, 25)
	if !c.Contains(Key{Block: 1}) {
		t.Fatal("Contains missed")
	}
	// Block 1 is still LRU: inserting evicts it despite Contains.
	evicted, _ := evictedBy(c, Key{Block: 3}, 25)
	if len(evicted) != 1 || evicted[0] != (Key{Block: 1}) {
		t.Fatalf("evicted = %v", evicted)
	}
	hits, misses, _ := c.Stats()
	if hits != 0 || misses != 0 {
		t.Fatal("Contains affected stats")
	}
}

func TestKeysMRUFirst(t *testing.T) {
	c := MustNew(100)
	for i := int64(0); i < 3; i++ {
		c.Put(Key{Block: i}, 10)
	}
	c.Get(Key{Block: 0})
	keys := c.Keys()
	if len(keys) != 3 || keys[0] != (Key{Block: 0}) {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestKeyString(t *testing.T) {
	if got := (Key{File: 3, Block: 9}).String(); got != "3:9" {
		t.Fatalf("String = %q", got)
	}
}

// Property: Used never exceeds Capacity and always equals the sum of
// resident sizes, under any operation sequence.
func TestPropertyCapacityInvariant(t *testing.T) {
	type op struct {
		Put   bool
		Block int8
		Size  uint8
	}
	f := func(ops []op) bool {
		c := MustNew(200)
		for _, o := range ops {
			k := Key{Block: int64(o.Block % 16)}
			if o.Put {
				c.Put(k, int64(o.Size%60)+1)
			} else {
				c.Get(k)
			}
			if c.Used() > c.Capacity() || c.Used() < 0 {
				return false
			}
			var sum int64
			for _, key := range c.Keys() {
				if s, ok := c.Get(key); ok {
					sum += s
				}
			}
			if sum != c.Used() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLRUPutGet(b *testing.B) {
	c := MustNew(64 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := Key{Block: int64(i % 2000)}
		if _, ok := c.Get(k); !ok {
			c.Put(k, 64<<10)
		}
	}
}

// TestPutGetAllocateNothing pins the slab-backed recency list: once the
// slab covers the working set, Put (with evictions) and Get allocate
// nothing on either cache.
func TestPutGetAllocateNothing(t *testing.T) {
	pal, err := NewPALRU(16*100, func(k Key) bool { return k.Block%3 != 0 }, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Store{MustNew(16 * 100), pal} {
		var b int64
		op := func() {
			// 40 keys cycling through a 16-block cache: every Put of a new
			// block evicts, and the Get of an older block misses or hits.
			b = (b + 1) % 40
			c.Put(Key{File: 1, Block: b}, 100)
			c.Get(Key{File: 1, Block: (b + 30) % 40})
			c.Put(Key{File: 1, Block: b}, 90) // refresh in place
		}
		for i := 0; i < 1000; i++ {
			op()
		}
		if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
			t.Fatalf("%T: Put/Get allocate %v objects, want 0", c, allocs)
		}
		if hits, _, evictions := c.Stats(); evictions == 0 || hits == 0 {
			t.Fatalf("%T: hits=%d evictions=%d: path not exercised", c, hits, evictions)
		}
	}
}
