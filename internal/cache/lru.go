// Package cache provides the byte-budgeted block LRU used in two places in
// the reproduction: the per-I/O-node storage cache (Table II: 64 MB, with
// prefetch insertion) and the client-side global buffer the runtime data
// access scheduler manages (§III, built on the collective caching library of
// Liao et al.).
package cache

import "fmt"

// Key identifies a cached block: a file id plus a block index within the
// file (the block granularity is chosen by the owner — stripe units for the
// storage cache, access ids for the client buffer).
type Key struct {
	File  int
	Block int64
}

// String renders "file:block".
func (k Key) String() string { return fmt.Sprintf("%d:%d", k.File, k.Block) }

// Store is the block-cache behaviour shared by LRU and PALRU, which the
// I/O node's storage cache is written against.
type Store interface {
	Get(k Key) (size int64, ok bool)
	Put(k Key, size int64) (ok bool)
	Contains(k Key) bool
	Remove(k Key) bool
	Used() int64
	Capacity() int64
	Len() int
	Stats() (hits, misses, evictions int64)
}

var (
	_ Store = (*LRU)(nil)
	_ Store = (*PALRU)(nil)
)

// none terminates the recency links and the free-slot chain.
const none int32 = -1

// slot is one resident block in the recency slab.
type slot struct {
	key        Key
	size       int64
	prev, next int32 // toward the most / least recent end; none at the ends
}

// recency is the byte-budgeted recency order LRU and PALRU share. Entries
// live in one slab linked by index (head = most recent), freed slots are
// chained for reuse, and a map indexes them by key — so once the slab has
// grown to the working set, Put, Get and Remove allocate nothing. The two
// caches differ only in how Put picks its eviction victims.
type recency struct {
	capacity   int64
	used       int64
	slab       []slot
	head, tail int32
	free       int32 // first slot of the free chain (linked through next)
	index      map[Key]int32

	hits, misses, evictions int64
}

func newRecency(capacity int64) (recency, error) {
	if capacity <= 0 {
		return recency{}, fmt.Errorf("cache: capacity %d must be positive", capacity)
	}
	return recency{capacity: capacity, head: none, tail: none, free: none, index: make(map[Key]int32)}, nil
}

// Capacity returns the byte budget.
func (c *recency) Capacity() int64 { return c.capacity }

// Used returns the bytes currently resident.
func (c *recency) Used() int64 { return c.used }

// Len returns the number of resident blocks.
func (c *recency) Len() int { return len(c.index) }

// Stats returns cumulative hit/miss/eviction counters.
func (c *recency) Stats() (hits, misses, evictions int64) { return c.hits, c.misses, c.evictions }

// Contains reports residency without affecting recency or hit counters.
func (c *recency) Contains(k Key) bool {
	_, ok := c.index[k]
	return ok
}

// Get probes the cache, promoting and counting a hit when resident.
func (c *recency) Get(k Key) (size int64, ok bool) {
	i, ok := c.index[k]
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	c.unlink(i)
	c.pushFront(i)
	return c.slab[i].size, true
}

// Remove invalidates a block (the client buffer's hit-then-invalidate
// semantics). It reports whether the block was resident.
func (c *recency) Remove(k Key) bool {
	i, ok := c.index[k]
	if !ok {
		return false
	}
	c.drop(i)
	return true
}

// Keys returns resident keys from most to least recently used (diagnostics
// and tests).
func (c *recency) Keys() []Key {
	out := make([]Key, 0, len(c.index))
	for i := c.head; i != none; i = c.slab[i].next {
		out = append(out, c.slab[i].key)
	}
	return out
}

// admit inserts or refreshes k as the most recent block, leaving eviction
// to the caller. Blocks larger than the whole capacity are rejected.
func (c *recency) admit(k Key, size int64) bool {
	if size <= 0 || size > c.capacity {
		return false
	}
	if i, ok := c.index[k]; ok {
		c.used += size - c.slab[i].size
		c.slab[i].size = size
		c.unlink(i)
		c.pushFront(i)
		return true
	}
	i := c.free
	if i != none {
		c.free = c.slab[i].next
	} else {
		i = int32(len(c.slab))
		c.slab = append(c.slab, slot{})
	}
	c.slab[i] = slot{key: k, size: size}
	c.pushFront(i)
	c.index[k] = i
	c.used += size
	return true
}

// evict drops victim i as an eviction.
func (c *recency) evict(i int32) {
	c.drop(i)
	c.evictions++
}

// drop unlinks slot i, forgets its key and chains it onto the free list.
func (c *recency) drop(i int32) {
	c.unlink(i)
	delete(c.index, c.slab[i].key)
	c.used -= c.slab[i].size
	c.slab[i].next = c.free
	c.free = i
}

func (c *recency) pushFront(i int32) {
	c.slab[i].prev = none
	c.slab[i].next = c.head
	if c.head != none {
		c.slab[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

func (c *recency) unlink(i int32) {
	prev, next := c.slab[i].prev, c.slab[i].next
	if prev != none {
		c.slab[prev].next = next
	} else {
		c.head = next
	}
	if next != none {
		c.slab[next].prev = prev
	} else {
		c.tail = prev
	}
}

// LRU is a least-recently-used cache with a byte capacity. It stores block
// sizes, not payloads — the simulation tracks residency, not data. The zero
// value is not usable; use New.
type LRU struct {
	recency
}

// New returns an empty cache holding at most capacity bytes. Capacity must
// be positive.
func New(capacity int64) (*LRU, error) {
	r, err := newRecency(capacity)
	if err != nil {
		return nil, err
	}
	return &LRU{recency: r}, nil
}

// MustNew is New, panicking on error.
func MustNew(capacity int64) *LRU {
	c, err := New(capacity)
	if err != nil {
		panic(err)
	}
	return c
}

// Put inserts or refreshes a block, evicting least-recently-used blocks to
// fit. Blocks larger than the whole capacity are rejected with ok = false.
func (c *LRU) Put(k Key, size int64) (ok bool) {
	if !c.admit(k, size) {
		return false
	}
	// k is the most recent block and fits on its own, so the tail is never
	// k while the budget is exceeded.
	for c.used > c.capacity && c.tail != none {
		c.evict(c.tail)
	}
	return true
}
