package cache

import (
	"testing"
	"testing/quick"
)

func TestPALRUValidation(t *testing.T) {
	if _, err := NewPALRU(0, nil, 4); err == nil {
		t.Fatal("zero capacity accepted")
	}
	c, err := NewPALRU(100, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.lookahead != 8 {
		t.Fatalf("default lookahead = %d, want 8", c.lookahead)
	}
}

func TestPALRUBehavesAsLRUWithoutCallback(t *testing.T) {
	c, _ := NewPALRU(100, nil, 4)
	for i := int64(0); i < 4; i++ {
		c.Put(Key{Block: i}, 25)
	}
	evicted, ok := evictedBy(c, Key{Block: 9}, 25)
	if !ok || len(evicted) != 1 || evicted[0] != (Key{Block: 0}) {
		t.Fatalf("evicted = %v, %v; want strict LRU victim", evicted, ok)
	}
	if _, ok := c.Get(Key{Block: 9}); !ok {
		t.Fatal("inserted block missing")
	}
	hits, misses, evictions := c.Stats()
	if hits != 1 || misses != 0 || evictions != 1 {
		t.Fatalf("stats = %d %d %d", hits, misses, evictions)
	}
}

func TestPALRUProtectsSleepingDisks(t *testing.T) {
	// Blocks on even block numbers live on a sleeping disk; odd are awake.
	active := func(k Key) bool { return k.Block%2 == 1 }
	c, _ := NewPALRU(100, active, 8)
	// LRU order (oldest first): 0 (sleeping), 1 (awake), 2 (sleeping), 3.
	for i := int64(0); i < 4; i++ {
		c.Put(Key{Block: i}, 25)
	}
	evicted, _ := evictedBy(c, Key{Block: 11}, 25)
	if len(evicted) != 1 || evicted[0] != (Key{Block: 1}) {
		t.Fatalf("evicted = %v, want block 1 (oldest awake-disk block)", evicted)
	}
	if c.Protections() != 1 {
		t.Fatalf("protections = %d", c.Protections())
	}
	// Block 0 (sleeping disk) survived despite being strictly LRU.
	if !c.Contains(Key{Block: 0}) {
		t.Fatal("sleeping-disk block evicted")
	}
}

func TestPALRUFallsBackWhenAllSleeping(t *testing.T) {
	c, _ := NewPALRU(100, func(Key) bool { return false }, 4)
	for i := int64(0); i < 4; i++ {
		c.Put(Key{Block: i}, 25)
	}
	evicted, _ := evictedBy(c, Key{Block: 9}, 25)
	if len(evicted) != 1 || evicted[0] != (Key{Block: 0}) {
		t.Fatalf("evicted = %v, want strict LRU fallback", evicted)
	}
}

func TestPALRURemoveAndUsed(t *testing.T) {
	c, _ := NewPALRU(100, nil, 4)
	c.Put(Key{Block: 1}, 40)
	if !c.Remove(Key{Block: 1}) || c.Used() != 0 || c.Len() != 0 {
		t.Fatalf("remove bookkeeping: used=%d len=%d", c.Used(), c.Len())
	}
	if c.Remove(Key{Block: 1}) {
		t.Fatal("double remove succeeded")
	}
}

// Property: PALRU never exceeds capacity and Used matches the sum of
// resident entries, regardless of the activity pattern.
func TestPropertyPALRUCapacity(t *testing.T) {
	type op struct {
		Block  int8
		Size   uint8
		Active bool
	}
	f := func(ops []op) bool {
		flags := map[int64]bool{}
		c, err := NewPALRU(200, func(k Key) bool { return flags[k.Block] }, 4)
		if err != nil {
			return false
		}
		for _, o := range ops {
			b := int64(o.Block % 16)
			if b < 0 {
				b = -b
			}
			flags[b] = o.Active
			c.Put(Key{Block: b}, int64(o.Size%60)+1)
			if c.Used() > c.Capacity() || c.Used() < 0 {
				return false
			}
		}
		var sum int64
		for b := int64(0); b < 16; b++ {
			if s, ok := c.Get(Key{Block: b}); ok {
				sum += s
			}
		}
		return sum == c.Used()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
