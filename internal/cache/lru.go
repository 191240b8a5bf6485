// Package cache provides the byte-budgeted block caches behind each I/O
// node's storage cache (Table II: 64 MB, with prefetch insertion): a plain
// LRU and the power-aware PALRU of the cache-policy ablation. Both track
// which blocks are resident and how large they are, not their data.
package cache

import "fmt"

// Key identifies a cached block: a file id plus a block index within the
// file (the block granularity is chosen by the owner; the I/O node uses
// stripe units).
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
// live in one slab linked by index (head = most recent), and freed slots
// are chained for reuse. An open-addressed table indexes them by key: each
// cell holds a slab index + 1 (0 = empty), collisions probe linearly,
// deletes shift the following run back, and the table is kept at most half
// full. The first admit after New or Reset sizes the slab and the table
// for capacity ÷ that block's size + 1 entries (the +1 is the block
// admitted before eviction makes room, and maxPresize caps it), unless the
// slab kept from an earlier use already holds that many, so a cache whose
// blocks are all one size allocates nothing after its first Put, and a
// recycled one nothing at all. Smaller blocks later grow both by doubling.
// The two caches differ only in how Put picks its eviction victims.
type recency struct {
	capacity   int64
	used       int64
	slab       []slot
	head, tail int32
	free       int32 // first slot of the free chain (linked through next)
	index      []int32
	n          int // resident blocks

	hits, misses, evictions int64
}

// reset empties the cache for a byte budget of capacity, keeping the slab
// and the table for reuse.
func (c *recency) reset(capacity int64) error {
	if capacity <= 0 {
		return fmt.Errorf("cache: capacity %d must be positive", capacity)
	}
	clear(c.index)
	*c = recency{capacity: capacity, slab: c.slab[:0], head: none, tail: none, free: none, index: c.index}
	return nil
}

// Capacity returns the byte budget.
func (c *recency) Capacity() int64 { return c.capacity }

// Used returns the bytes currently resident.
func (c *recency) Used() int64 { return c.used }

// Len returns the number of resident blocks.
func (c *recency) Len() int { return c.n }

// Stats returns cumulative hit/miss/eviction counters.
func (c *recency) Stats() (hits, misses, evictions int64) { return c.hits, c.misses, c.evictions }

// Contains reports residency without affecting recency or hit counters.
func (c *recency) Contains(k Key) bool {
	_, i := c.lookup(k)
	return i != none
}

// Get probes the cache, promoting and counting a hit when resident.
func (c *recency) Get(k Key) (size int64, ok bool) {
	_, i := c.lookup(k)
	if i == none {
		c.misses++
		return 0, false
	}
	c.hits++
	c.unlink(i)
	c.pushFront(i)
	return c.slab[i].size, true
}

// Remove invalidates a block. It reports whether the block was resident.
func (c *recency) Remove(k Key) bool {
	_, i := c.lookup(k)
	if i == none {
		return false
	}
	c.drop(i)
	return true
}

// Keys returns resident keys from most to least recently used (diagnostics
// and tests).
func (c *recency) Keys() []Key {
	out := make([]Key, 0, c.n)
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
	if n := min(c.capacity/size+1, maxPresize); len(c.slab) == 0 && int64(cap(c.slab)) < n {
		c.slab = make([]slot, 0, n)
		c.index = make([]int32, tableSize(n))
	}
	cell, i := c.lookup(k)
	if i != none {
		c.used += size - c.slab[i].size
		c.slab[i].size = size
		c.unlink(i)
		c.pushFront(i)
		return true
	}
	if 2*(c.n+1) > len(c.index) {
		c.grow()
		cell, _ = c.lookup(k)
	}
	i = c.free
	if i != none {
		c.free = c.slab[i].next
	} else {
		i = int32(len(c.slab))
		c.slab = append(c.slab, slot{})
	}
	c.slab[i] = slot{key: k, size: size}
	c.pushFront(i)
	c.index[cell] = i + 1
	c.n++
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
	cell, _ := c.lookup(c.slab[i].key)
	c.unindex(cell)
	c.n--
	c.used -= c.slab[i].size
	c.slab[i].next = c.free
	c.free = i
}

// maxPresize caps the first admit's sizing (about 2.5 MB of slab and
// table), so a huge capacity met by small blocks grows with its working set
// instead of reserving room for blocks it may never hold.
const maxPresize = 1 << 16

// tableSize returns the smallest power of two at least twice n.
func tableSize(n int64) int {
	size := 2
	for int64(size) < 2*n {
		size <<= 1
	}
	return size
}

// Hash mixes k's file and block into well-spread bits, for tables keyed
// by block.
func (k Key) Hash() uint64 {
	h := uint64(k.Block) ^ uint64(k.File)*0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// home returns k's preferred cell in a table of the given power-of-two
// length.
func home(k Key, length int) int { return int(k.Hash() & uint64(length-1)) }

// lookup returns k's cell and slab index, or the empty cell where k would
// go and none.
func (c *recency) lookup(k Key) (cell int, i int32) {
	if c.index == nil {
		return 0, none
	}
	mask := len(c.index) - 1
	for cell = home(k, len(c.index)); ; cell = (cell + 1) & mask {
		v := c.index[cell]
		if v == 0 {
			return cell, none
		}
		if c.slab[v-1].key == k {
			return cell, v - 1
		}
	}
}

// unindex empties cell, shifting back every later entry of its probe run
// that the hole would otherwise cut off from its home cell.
func (c *recency) unindex(cell int) {
	mask := len(c.index) - 1
	for next := (cell + 1) & mask; ; next = (next + 1) & mask {
		v := c.index[next]
		if v == 0 {
			break
		}
		h := home(c.slab[v-1].key, len(c.index))
		if (next-h)&mask >= (next-cell)&mask {
			c.index[cell] = v
			cell = next
		}
	}
	c.index[cell] = 0
}

// grow doubles the index and rehashes every resident block into it.
func (c *recency) grow() {
	old := c.index
	c.index = make([]int32, 2*len(old))
	mask := len(c.index) - 1
	for _, v := range old {
		if v == 0 {
			continue
		}
		cell := home(c.slab[v-1].key, len(c.index))
		for c.index[cell] != 0 {
			cell = (cell + 1) & mask
		}
		c.index[cell] = v
	}
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
	c := &LRU{}
	if err := c.Reset(capacity); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset empties c, in place, for a byte budget of capacity. The slab and
// index an earlier use sized are kept, so a recycled cache allocates
// nothing once they are large enough.
func (c *LRU) Reset(capacity int64) error { return c.reset(capacity) }

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
