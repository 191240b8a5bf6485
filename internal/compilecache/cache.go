// Package compilecache memoizes compile results across a session's worker
// pool and, optionally, across processes. The compile pass — slack
// analysis plus scheduling-table construction — is a pure function of
// (program, procs, compiler.Options), so sweep points that differ only in
// runtime knobs (seed, power policy, RPM set, buffer size, faults) share
// one artifact. Level one is an in-process memo.Map keyed by the
// canonical compile key; level two is a persistent content-addressed
// JSONL artifact store (internal/store) holding the serializable
// compiler.Artifact mirror. Every artifact is round-trip-pinned before it
// is persisted: the store never holds an artifact whose restore is not
// provably equivalent to the live compile that produced it.
package compilecache

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"

	"sdds/internal/compiler"
	"sdds/internal/loop"
	"sdds/internal/memo"
	"sdds/internal/store"
)

// Cache is a two-level compile-result cache, safe for concurrent use.
type Cache struct {
	memo memo.Map[string, *compiler.Result]

	st     *store.Store // nil: in-process memo only
	ownSt  bool         // Close closes the store only if this cache opened it
	mu     sync.Mutex   // guards closed
	closed bool

	hits        atomic.Int64
	misses      atomic.Int64
	restores    atomic.Int64
	uncacheable atomic.Int64
	bytes       atomic.Int64
}

// New returns an in-process cache with no persistent backing.
func New() *Cache { return &Cache{} }

// Open returns a cache backed by the persistent artifact store at path,
// resuming any artifacts already on disk. The store file is append-only
// and content-addressed, so concurrent processes can share it.
func Open(path string) (*Cache, error) {
	st, err := store.Open(path, false)
	if err != nil {
		return nil, err
	}
	c := New()
	c.st = st
	c.ownSt = true
	return c, nil
}

// NewWithStore returns a cache backed by an externally managed artifact
// store; Close leaves the store open.
func NewWithStore(st *store.Store) *Cache {
	c := New()
	c.st = st
	return c
}

// Store exposes the backing artifact store (nil for in-process caches) —
// for integrity checks and status reporting.
func (c *Cache) Store() *store.Store { return c.st }

// Close releases the persistent store if this cache opened it. The
// in-process memo stays usable.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.st == nil || !c.ownSt {
		c.closed = true
		return nil
	}
	c.closed = true
	return c.st.Close()
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	// Hits counts compiles served from the in-process memo.
	Hits int64 `json:"hits"`
	// Misses counts compiles that ran fresh (no memo, no artifact).
	Misses int64 `json:"misses"`
	// Restores counts compiles rehydrated from the persistent store.
	Restores int64 `json:"restores"`
	// Uncacheable counts compiles that bypassed the cache because a
	// non-serializable input (custom region, random ties) defeats keying.
	Uncacheable int64 `json:"uncacheable"`
	// Bytes totals artifact bytes moved through the store: written on
	// persist plus read on restore.
	Bytes int64 `json:"bytes"`
	// Entries is the current in-process memo size.
	Entries int `json:"entries"`
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Restores:    c.restores.Load(),
		Uncacheable: c.uncacheable.Load(),
		Bytes:       c.bytes.Load(),
		Entries:     c.memo.Len(),
	}
}

// CompileContext resolves the compile pass for (program, options) through
// the cache, reporting where the result came from. Concurrent callers
// with the same key share one compile, and deterministic compile errors
// are cached like results; a cancelled owner leaves the key uncached
// (memo's abandon rule). It satisfies cluster.CompileService.
func (c *Cache) CompileContext(ctx context.Context, p *loop.Program, opts compiler.Options) (*compiler.Result, compiler.Provenance, error) {
	key, ok := compiler.KeyFor(p, opts)
	if !ok {
		c.uncacheable.Add(1)
		res, err := compiler.CompileContext(ctx, p, opts)
		return res, compiler.ProvUncacheable, err
	}
	var prov compiler.Provenance
	res, hit, err := c.memo.Do(ctx, key, func() (*compiler.Result, error) {
		res, fresh, err := c.fill(ctx, key, p, opts)
		prov = fresh
		return res, err
	})
	if hit {
		c.hits.Add(1)
		prov = compiler.ProvMemory
	}
	return res, prov, err
}

// fill produces the value for a memo cell the caller owns: restore from
// the artifact store when possible, compile (and persist) otherwise.
func (c *Cache) fill(ctx context.Context, key string, p *loop.Program, opts compiler.Options) (*compiler.Result, compiler.Provenance, error) {
	if c.st != nil {
		var raw json.RawMessage
		if found, err := c.st.Get(key, &raw); err == nil && found {
			var art compiler.Artifact
			if err := json.Unmarshal(raw, &art); err == nil {
				if res, err := art.Restore(p, opts); err == nil {
					c.restores.Add(1)
					c.bytes.Add(int64(len(raw)))
					return res, compiler.ProvStore, nil
				}
			}
			// A corrupt or version-skewed artifact falls through to a fresh
			// compile; the run must never fail on cache damage.
		}
	}
	res, err := compiler.CompileContext(ctx, p, opts)
	if err != nil {
		return nil, compiler.ProvCompiled, err
	}
	c.misses.Add(1)
	if c.st != nil {
		c.persist(key, res, p, opts)
	}
	return res, compiler.ProvCompiled, nil
}

// persist writes the result's artifact to the store, but only after
// pinning the round trip: marshal, unmarshal, restore, and verify the
// restored result is equivalent to the live one. Persistence is
// best-effort — any failure leaves the store unchanged and the in-process
// result unaffected.
func (c *Cache) persist(key string, res *compiler.Result, p *loop.Program, opts compiler.Options) {
	raw, err := json.Marshal(res.Artifact())
	if err != nil {
		return
	}
	var back compiler.Artifact
	if err := json.Unmarshal(raw, &back); err != nil {
		return
	}
	restored, err := back.Restore(p, opts)
	if err != nil || compiler.EquivalentResults(res, restored) != nil {
		return
	}
	if err := c.st.Put(key, json.RawMessage(raw)); err != nil {
		return
	}
	c.bytes.Add(int64(len(raw)))
}
