package cache

// PALRU is a power-aware variant of the block LRU, after the PA-LRU idea
// of Zhu et al. [43] that the paper's related-work section discusses:
// when evicting, it prefers (within a bounded look-ahead from the LRU end)
// blocks whose home disk is currently active, keeping blocks that would
// require waking a sleeping or slowed disk to refetch. Used by the I/O
// node's storage cache in the cache-policy ablation.
type PALRU struct {
	recency

	// active reports whether the disk holding a block is awake (cheap to
	// refetch from). Blocks of sleeping disks are protected.
	active func(Key) bool
	// lookahead bounds how far from the LRU end the eviction scan may
	// search for an active-disk victim before falling back to strict LRU.
	lookahead int

	protections int64
}

// NewPALRU builds a power-aware cache. active may be nil (degenerates to
// plain LRU); lookahead ≤ 0 defaults to 8.
func NewPALRU(capacity int64, active func(Key) bool, lookahead int) (*PALRU, error) {
	r, err := newRecency(capacity)
	if err != nil {
		return nil, err
	}
	if lookahead <= 0 {
		lookahead = 8
	}
	return &PALRU{recency: r, active: active, lookahead: lookahead}, nil
}

// Protections counts evictions redirected away from sleeping disks.
func (c *PALRU) Protections() int64 { return c.protections }

// Put inserts or refreshes a block, evicting power-aware victims to fit.
func (c *PALRU) Put(k Key, size int64) (ok bool) {
	if !c.admit(k, size) {
		return false
	}
	for c.used > c.capacity {
		v := c.pickVictim(k)
		if v == none {
			break
		}
		c.evict(v)
	}
	return true
}

// pickVictim scans up to lookahead entries from the LRU end, returning the
// first whose disk is active; with none found it falls back to the strict
// LRU entry. The just-inserted key is never chosen.
func (c *PALRU) pickVictim(justInserted Key) int32 {
	fallback := none
	scanned := 0
	for i := c.tail; i != none && scanned < c.lookahead; i = c.slab[i].prev {
		k := c.slab[i].key
		if k == justInserted {
			continue
		}
		scanned++
		if fallback == none {
			fallback = i
		}
		if c.active == nil || c.active(k) {
			if i != fallback {
				c.protections++
			}
			return i
		}
	}
	return fallback
}
