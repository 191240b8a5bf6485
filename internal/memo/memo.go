// Package memo is the one singleflight cache of the evaluation stack: a
// map from key to a value computed at most once, by the first caller that
// wants it, while concurrent callers for the same key wait for that
// computation instead of repeating it. The harness run cache, its setup
// cache and the compile cache's in-process level are all a Map.
//
// A cell's lifecycle has one abandon rule. The owner's fill result —
// value and error alike — is cached, except that an error returned while
// the owner's context is done belongs to the caller, not the key: the cell
// is removed, its waiters retry, and one of them claims it again. A fill
// that panics abandons its cell the same way before the panic continues on
// the owner's goroutine.
package memo

import (
	"cmp"
	"context"
	"slices"
	"sync"
)

// Map is a singleflight memo from K to V, safe for concurrent use. The
// zero value is ready to use. A Map must not be copied after first use.
type Map[K comparable, V any] struct {
	mu     sync.Mutex
	cells  map[K]*cell[K, V]
	claims uint64 // claim counter; orders InFlight
	seeded int
}

// cell is one key's slot. done closes once val and err are final, or once
// the cell is abandoned — by then it has already left the map.
type cell[K comparable, V any] struct {
	key       K
	seq       uint64
	done      chan struct{}
	val       V
	err       error
	abandoned bool
}

// Do returns key's value, calling fill to produce it when no other call
// has. The first caller of a key runs fill on its own goroutine with no
// lock held; concurrent callers wait for it, or return their own context's
// error. hit reports whether the value came from another call's fill or
// from Seed.
func (m *Map[K, V]) Do(ctx context.Context, key K, fill func() (V, error)) (v V, hit bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return v, false, err
		}
		m.mu.Lock()
		c, ok := m.cells[key]
		if !ok {
			if m.cells == nil {
				m.cells = make(map[K]*cell[K, V])
			}
			m.claims++
			c = &cell[K, V]{key: key, seq: m.claims, done: make(chan struct{})}
			m.cells[key] = c
			m.mu.Unlock()
			v, err = m.own(ctx, c, fill)
			return v, false, err
		}
		m.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
		if !c.abandoned {
			return c.val, true, c.err
		}
	}
}

// own runs fill for the cell the caller just claimed, then resolves the
// cell or, under the abandon rule, removes it.
func (m *Map[K, V]) own(ctx context.Context, c *cell[K, V], fill func() (V, error)) (v V, err error) {
	kept := false
	defer func() {
		if kept {
			return
		}
		m.mu.Lock()
		delete(m.cells, c.key)
		m.mu.Unlock()
		c.abandoned = true
		close(c.done)
	}()
	v, err = fill()
	if err != nil && ctx.Err() != nil {
		return v, err
	}
	c.val, c.err, kept = v, err, true
	close(c.done)
	return v, err
}

// Seed installs a resolved value for key unless the key already has a cell
// (resolved or in flight), reporting whether it did: first write wins.
// Seeded values count toward Seeded and are served to Do as hits.
func (m *Map[K, V]) Seed(key K, v V) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.cells[key]; ok {
		return false
	}
	if m.cells == nil {
		m.cells = make(map[K]*cell[K, V])
	}
	done := make(chan struct{})
	close(done)
	m.cells[key] = &cell[K, V]{key: key, done: done, val: v}
	m.seeded++
	return true
}

// Lookup returns key's resolved value and error without waiting: ok is
// false for an unknown key and for one whose fill is still running.
func (m *Map[K, V]) Lookup(key K) (v V, err error, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.cells[key]
	if !ok {
		return v, nil, false
	}
	select {
	case <-c.done:
		// Abandoned cells leave the map before done closes, so a cell
		// still in it here is resolved.
		return c.val, c.err, true
	default:
		return v, nil, false
	}
}

// Len reports how many keys the map holds, resolved or in flight.
func (m *Map[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cells)
}

// Seeded reports how many values Seed installed.
func (m *Map[K, V]) Seeded() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seeded
}

// InFlight returns the keys whose fill is still running, oldest claim
// first.
func (m *Map[K, V]) InFlight() []K {
	m.mu.Lock()
	var pending []*cell[K, V]
	for _, c := range m.cells {
		select {
		case <-c.done:
		default:
			pending = append(pending, c)
		}
	}
	m.mu.Unlock()
	slices.SortFunc(pending, func(a, b *cell[K, V]) int { return cmp.Compare(a.seq, b.seq) })
	keys := make([]K, len(pending))
	for i, c := range pending {
		keys[i] = c.key
	}
	return keys
}
