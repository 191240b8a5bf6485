package compilecache

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdds/internal/compiler"
	"sdds/internal/loop"
	"sdds/internal/sim"
)

func testProgram() *loop.Program {
	return &loop.Program{
		Name:  "t",
		Files: []loop.File{{ID: 0, Name: "a", Size: 1 << 26}, {ID: 1, Name: "b", Size: 1 << 26}},
		Nests: []loop.Nest{
			{Name: "produce", Trips: 32, Parallel: true, IterCost: sim.MilliToTime(2),
				Body: []loop.Stmt{{Kind: loop.StmtWrite, File: 0, Region: loop.Affine{IterCoef: 64 << 10, Len: 64 << 10}}}},
			{Name: "consume", Trips: 32, Parallel: true, IterCost: sim.MilliToTime(2),
				Body: []loop.Stmt{
					{Kind: loop.StmtRead, File: 0, Region: loop.Affine{IterCoef: 64 << 10, Len: 64 << 10}},
					{Kind: loop.StmtRead, File: 1, Region: loop.Affine{IterCoef: 32 << 10, Len: 32 << 10}},
				}},
		},
	}
}

func TestCacheMemoHit(t *testing.T) {
	c := New()
	ctx := context.Background()
	opts := compiler.DefaultOptions(4)
	r1, prov, err := c.CompileContext(ctx, testProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if prov != compiler.ProvCompiled {
		t.Fatalf("first compile provenance = %v", prov)
	}
	r2, prov, err := c.CompileContext(ctx, testProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if prov != compiler.ProvMemory {
		t.Fatalf("second compile provenance = %v", prov)
	}
	if r1 != r2 {
		t.Fatal("memo hit returned a different result pointer")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Concurrent callers with equal keys share exactly one compile.
func TestCacheSingleflight(t *testing.T) {
	c := New()
	opts := compiler.DefaultOptions(4)
	const n = 16
	var wg sync.WaitGroup
	results := make([]*compiler.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := c.CompileContext(context.Background(), testProgram(), opts)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (singleflight)", st.Misses)
	}
	if st.Hits != n-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, n-1)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent callers got different result pointers")
		}
	}
}

// Distinct options compile separately.
func TestCacheDistinctKeys(t *testing.T) {
	c := New()
	ctx := context.Background()
	a := compiler.DefaultOptions(4)
	b := a
	b.Theta = 8
	if _, _, err := c.CompileContext(ctx, testProgram(), a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.CompileContext(ctx, testProgram(), b); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheUncacheable(t *testing.T) {
	c := New()
	opts := compiler.DefaultOptions(4)
	opts.RandomTies = func(n int) int { return 0 }
	_, prov, err := c.CompileContext(context.Background(), testProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if prov != compiler.ProvUncacheable {
		t.Fatalf("provenance = %v, want uncacheable", prov)
	}
	if st := c.Stats(); st.Uncacheable != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// A store-backed cache persists artifacts and a fresh cache restores them
// with ProvStore, producing an equivalent result.
func TestCachePersistAndRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifacts.jsonl")
	opts := compiler.DefaultOptions(4)

	c1, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	live, prov, err := c1.CompileContext(context.Background(), testProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if prov != compiler.ProvCompiled {
		t.Fatalf("provenance = %v", prov)
	}
	if c1.Store().Len() != 1 {
		t.Fatalf("store entries = %d, want 1", c1.Store().Len())
	}
	if st := c1.Stats(); st.Bytes == 0 {
		t.Fatal("persist did not count bytes")
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	restored, prov, err := c2.CompileContext(context.Background(), testProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if prov != compiler.ProvStore {
		t.Fatalf("provenance = %v, want restored", prov)
	}
	if err := compiler.EquivalentResults(live, restored); err != nil {
		t.Fatalf("restored result not equivalent: %v", err)
	}
	st := c2.Stats()
	if st.Restores != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// And the restore is memoized: the next lookup is a memory hit.
	if _, prov, _ := c2.CompileContext(context.Background(), testProgram(), opts); prov != compiler.ProvMemory {
		t.Fatalf("post-restore provenance = %v, want memo", prov)
	}
}

// A corrupt stored artifact must fall back to a fresh compile, never fail
// the run.
func TestCacheCorruptArtifactFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifacts.jsonl")
	opts := compiler.DefaultOptions(4)
	key, ok := compiler.KeyFor(testProgram(), opts)
	if !ok {
		t.Fatal("uncacheable")
	}

	c1, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Store().Put(key, json.RawMessage(`{"version":999}`)); err != nil {
		t.Fatal(err)
	}
	res, prov, err := c1.CompileContext(context.Background(), testProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || prov != compiler.ProvCompiled {
		t.Fatalf("corrupt artifact: prov = %v, want fresh compile", prov)
	}
	if st := c1.Stats(); st.Restores != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	c1.Close()
}

// pollCtx is a context whose Err reports nil for its first live polls and
// then whatever after returns (or panics with): a cancellation or panic
// that lands once the owner has claimed its cell, mid-compile.
type pollCtx struct {
	context.Context
	live  int32
	polls atomic.Int32
	after func() error
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) <= c.live {
		return nil
	}
	return c.after()
}

// parkCtx is a live context that reports when a waiter first selects on
// its Done channel: by then the waiter holds the claimed cell it waits on.
type parkCtx struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func (c *parkCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.parked) })
	return c.Context.Done()
}

// A cancelled owner must not poison the cell: a waiter parked on it
// retries and compiles under its own context.
func TestCacheCancelledOwnerAbandons(t *testing.T) {
	c := New()
	opts := compiler.DefaultOptions(4)
	claimed, proceed := make(chan struct{}), make(chan struct{})
	var once sync.Once
	owner := &pollCtx{Context: context.Background(), live: 1, after: func() error {
		once.Do(func() { close(claimed); <-proceed })
		return context.Canceled
	}}
	ownerErr := make(chan error, 1)
	go func() {
		_, _, err := c.CompileContext(owner, testProgram(), opts)
		ownerErr <- err
	}()
	<-claimed // the owner holds the cell and is compiling

	type outcome struct {
		res  *compiler.Result
		prov compiler.Provenance
		err  error
	}
	waiter := make(chan outcome, 1)
	wctx := &parkCtx{Context: context.Background(), parked: make(chan struct{})}
	go func() {
		res, prov, err := c.CompileContext(wctx, testProgram(), opts)
		waiter <- outcome{res, prov, err}
	}()
	<-wctx.parked // the waiter is waiting on the owner's cell
	close(proceed)

	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	w := <-waiter
	if w.err != nil || w.res == nil {
		t.Fatalf("waiter after abandon: %v", w.err)
	}
	if w.prov != compiler.ProvCompiled {
		t.Fatalf("waiter provenance = %v, want a fresh compile", w.prov)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want one compile and no hits", st)
	}
}

// A compile that panics abandons its cell: once the panic is recovered,
// the next compile of the key runs instead of waiting forever.
func TestCachePanickingOwnerAbandons(t *testing.T) {
	c := New()
	opts := compiler.DefaultOptions(4)
	owner := &pollCtx{Context: context.Background(), live: 1, after: func() error {
		panic("context poll panicked")
	}}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("compile did not panic")
			}
		}()
		c.CompileContext(owner, testProgram(), opts)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, prov, err := c.CompileContext(ctx, testProgram(), opts)
	if err != nil || res == nil {
		t.Fatalf("compile after a panicked owner: %v", err)
	}
	if prov != compiler.ProvCompiled {
		t.Fatalf("provenance = %v, want a fresh compile", prov)
	}
}
