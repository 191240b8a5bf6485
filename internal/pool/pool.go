// Package pool provides the free lists the simulated I/O path recycles its
// request structs through. A pooled struct binds its completion handlers
// once, when the pool first allocates it, and is handed back only after its
// final completion has fired, so the steady-state request path — mpiio
// chunks, I/O-node member requests and unit fetches, scheduler prefetches —
// allocates nothing.
//
// Pools are single-threaded like the engine they serve. Ownership checking
// (Check) is a test aid: it panics when a struct is released twice or handed
// out while still in flight, and reports how many structs were never
// released.
package pool

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool is a free list of *T. The zero value is not usable; use New.
type Pool[T any] struct {
	alloc func() *T
	free  []*T
	live  int
	// owned tracks the structs currently handed out; non-nil only for
	// pools created while a Checker is active.
	owned map[*T]bool
}

// New returns an empty pool; alloc builds (and binds the handlers of) a
// fresh struct whenever the free list is empty.
func New[T any](alloc func() *T) *Pool[T] {
	p := &Pool[T]{alloc: alloc}
	if c := active.Load(); c != nil {
		p.owned = make(map[*T]bool)
		c.add(p)
	}
	return p
}

// Get hands out a recycled struct, or a freshly allocated one while the
// pool is still growing. Fields left by the previous owner are the
// caller's to overwrite.
func (p *Pool[T]) Get() *T {
	var x *T
	if n := len(p.free); n > 0 {
		x = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		x = p.alloc()
	}
	p.live++
	if p.owned != nil {
		if p.owned[x] {
			panic(fmt.Sprintf("pool: %T handed out while still in flight", x))
		}
		p.owned[x] = true
	}
	return x
}

// Put returns x to the free list. Call it only after x's final completion
// has fired: nothing — no disk, link or retry event — may still hold it.
func (p *Pool[T]) Put(x *T) {
	if p.owned != nil {
		if !p.owned[x] {
			panic(fmt.Sprintf("pool: %T released twice", x))
		}
		delete(p.owned, x)
	}
	p.live--
	p.free = append(p.free, x)
}

// Live reports how many structs are handed out and not yet released.
func (p *Pool[T]) Live() int { return p.live }

// active is the Checker pools created right now register with.
var active atomic.Pointer[Checker]

// Checker collects the pools created while it is active.
type Checker struct {
	mu    sync.Mutex
	pools []interface{ Live() int }
}

// Check turns on ownership checking for every pool created until Stop is
// called. Tests only: it is process-global, so a test using it must not run
// in parallel with another that builds pools.
func Check() *Checker {
	c := &Checker{}
	active.Store(c)
	return c
}

func (c *Checker) add(p interface{ Live() int }) {
	c.mu.Lock()
	c.pools = append(c.pools, p)
	c.mu.Unlock()
}

// Stop ends checking for pools created from now on.
func (c *Checker) Stop() { active.CompareAndSwap(c, nil) }

// Pools reports how many pools registered with the checker.
func (c *Checker) Pools() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pools)
}

// Live sums the live counts of every checked pool; call it once the
// simulations that own them have finished.
func (c *Checker) Live() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, p := range c.pools {
		total += p.Live()
	}
	return total
}
