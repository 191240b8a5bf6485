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
	"slices"
	"sync"
	"sync/atomic"
)

// Pool is a free list of *T. The zero value is not usable; use New.
type Pool[T any] struct {
	alloc func() *T
	free  []*T
	live  int
	// order lists every struct in the order Reset hands them out again;
	// nil until a Reset first finds structs, so a pool that is never
	// reused pays nothing for it.
	order []*T
	// owned tracks the structs currently handed out, and checker is the
	// Checker p registered with; both are non-nil only for pools created
	// or reset while a Checker is active.
	owned   map[*T]bool
	checker *Checker
}

// New returns an empty pool; alloc builds (and binds the handlers of) a
// fresh struct whenever the free list is empty.
func New[T any](alloc func() *T) *Pool[T] {
	p := &Pool[T]{alloc: alloc}
	p.Reset()
	return p
}

// Reset readies p for a new owner, keeping every struct it has
// allocated. It panics if a struct is still handed out: a pool is reset
// only once everything that used it has drained. The free list goes back
// to one fixed order (the order the first Reset that found structs saw
// them in, then allocation order), so equal runs on a reset pool are
// handed the same structs in the same order, and slices a struct grew in
// one run serve the same role in the next. Under an active Checker, p
// registers with it (once per Checker) and its ownership checking
// restarts; otherwise checking is off.
func (p *Pool[T]) Reset() {
	if p.live != 0 {
		panic(fmt.Sprintf("pool: reset with %d %T still in flight", p.live, (*T)(nil)))
	}
	if p.order == nil && len(p.free) > 0 {
		p.order = slices.Clone(p.free)
	}
	p.free = append(p.free[:0], p.order...)
	c := active.Load()
	if c == nil {
		p.owned, p.checker = nil, nil
		return
	}
	if p.owned == nil {
		p.owned = make(map[*T]bool)
	}
	if p.checker != c {
		p.checker = c
		c.add(p)
	}
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
		if p.order != nil {
			p.order = append(p.order, x)
		}
	}
	p.live++
	if p.owned != nil {
		if p.owned[x] {
			panic(fmt.Sprintf("pool: %T handed out while still in flight", x)) //sddsvet:ignore hotalloc -- ownership-check panic: owned is non-nil only under a test-only pool.Check
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
			panic(fmt.Sprintf("pool: %T released twice", x)) //sddsvet:ignore hotalloc -- ownership-check panic: owned is non-nil only under a test-only pool.Check
		}
		delete(p.owned, x)
	}
	p.live--
	p.free = append(p.free, x)
}

// Live reports how many structs are handed out and not yet released.
func (p *Pool[T]) Live() int { return p.live }

// active is the Checker pools created or reset right now register with.
var active atomic.Pointer[Checker]

// Checker collects the pools created or reset while it is active.
type Checker struct {
	mu    sync.Mutex
	pools []interface{ Live() int }
}

// Check turns on ownership checking for every pool created or reset until
// Stop is called. Tests only: it is process-global, so a test using it
// must not run in parallel with another that builds or resets pools.
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

// Stop ends checking for pools created or reset from now on.
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
