package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoFillsOncePerKey: concurrent callers of one key share one fill,
// every caller but the owner reports a hit, and distinct keys fill
// separately.
func TestDoFillsOncePerKey(t *testing.T) {
	var m Map[string, int]
	var fills atomic.Int64
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	var hits atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := m.Do(context.Background(), "k", func() (int, error) {
				fills.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = (%d, %v), want (42, nil)", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	close(release)
	wg.Wait()
	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times for one key, want 1", got)
	}
	if got := hits.Load(); got != n-1 {
		t.Fatalf("%d hits, want %d", got, n-1)
	}
	v, hit, err := m.Do(context.Background(), "other", func() (int, error) { return 7, nil })
	if v != 7 || hit || err != nil {
		t.Fatalf("distinct key: Do = (%d, %v, %v), want a fresh fill", v, hit, err)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

// TestDoCachesErrors: a fill error under a live context is the key's
// verdict; later callers get it without filling again.
func TestDoCachesErrors(t *testing.T) {
	var m Map[string, int]
	boom := errors.New("boom")
	if _, _, err := m.Do(context.Background(), "k", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("owner err = %v, want boom", err)
	}
	_, hit, err := m.Do(context.Background(), "k", func() (int, error) {
		t.Fatal("cached error refilled")
		return 0, nil
	})
	if !hit || err != boom {
		t.Fatalf("second Do = (hit %v, %v), want the cached boom", hit, err)
	}
	if _, err, ok := m.Lookup("k"); !ok || err != boom {
		t.Fatalf("Lookup = (%v, %v), want the cached boom", err, ok)
	}
}

// parkCtx is a live context that reports when a waiter first selects on
// its Done channel: by then the waiter holds the claimed cell it waits on.
type parkCtx struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func newParkCtx() *parkCtx {
	return &parkCtx{Context: context.Background(), parked: make(chan struct{})}
}

func (c *parkCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.parked) })
	return c.Context.Done()
}

// TestCancelledOwnerAbandons: an error the owner returns once its context
// is done is not cached. A waiter parked on the cell retries and claims
// it again under its own context.
func TestCancelledOwnerAbandons(t *testing.T) {
	var m Map[string, int]
	ctx, cancel := context.WithCancel(context.Background())
	claimed := make(chan struct{})
	ownerErr := make(chan error, 1)
	go func() {
		_, _, err := m.Do(ctx, "k", func() (int, error) {
			close(claimed)
			<-ctx.Done()
			return 0, ctx.Err()
		})
		ownerErr <- err
	}()
	<-claimed

	waiter := make(chan int, 1)
	wctx := newParkCtx()
	go func() {
		v, hit, err := m.Do(wctx, "k", func() (int, error) { return 9, nil })
		if err != nil || hit {
			t.Errorf("waiter: hit=%v err=%v, want its own fresh fill", hit, err)
		}
		waiter <- v
	}()
	<-wctx.parked // the waiter is waiting on the owner's cell
	cancel()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	if v := <-waiter; v != 9 {
		t.Fatalf("waiter got %d, want its own fill's 9", v)
	}
	if v, err, ok := m.Lookup("k"); !ok || err != nil || v != 9 {
		t.Fatalf("Lookup = (%d, %v, %v), want the re-claimed value", v, err, ok)
	}
}

// TestWaiterLeavesWithItsOwnContext: a waiter whose context ends stops
// waiting with its own error; the owner's fill is unaffected.
func TestWaiterLeavesWithItsOwnContext(t *testing.T) {
	var m Map[string, int]
	claimed, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Do(context.Background(), "k", func() (int, error) {
			close(claimed)
			<-release
			return 1, nil
		})
	}()
	<-claimed
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, hit, err := m.Do(ctx, "k", func() (int, error) { return 2, nil }); hit || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter = (hit %v, %v), want its own deadline", hit, err)
	}
	close(release)
	<-done
	if v, _, ok := m.Lookup("k"); !ok || v != 1 {
		t.Fatalf("Lookup = (%d, %v), want the owner's 1", v, ok)
	}
}

// TestPanicAbandonsAndRepanics: a panicking fill abandons its cell, the
// panic reaches the owner, and the next caller fills the key afresh.
func TestPanicAbandonsAndRepanics(t *testing.T) {
	var m Map[string, int]
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the fill's panic", r)
			}
		}()
		m.Do(context.Background(), "k", func() (int, error) { panic("boom") })
		t.Fatal("Do returned after a panicking fill")
	}()
	if m.Len() != 0 || len(m.InFlight()) != 0 {
		t.Fatalf("panicked cell left behind: Len %d, in flight %v", m.Len(), m.InFlight())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	v, hit, err := m.Do(ctx, "k", func() (int, error) { return 3, nil })
	if v != 3 || hit || err != nil {
		t.Fatalf("after panic: Do = (%d, %v, %v), want a fresh fill", v, hit, err)
	}
}

// TestSeedFirstWriteWins: Seed installs a resolved value only into an
// empty key, counts what it installed, and Do serves it as a hit.
func TestSeedFirstWriteWins(t *testing.T) {
	var m Map[string, int]
	if !m.Seed("a", 1) {
		t.Fatal("Seed into an empty key refused")
	}
	if m.Seed("a", 2) {
		t.Fatal("second Seed of a key succeeded")
	}
	m.Do(context.Background(), "b", func() (int, error) { return 5, nil })
	if m.Seed("b", 6) {
		t.Fatal("Seed overwrote a filled key")
	}
	v, hit, err := m.Do(context.Background(), "a", func() (int, error) {
		t.Fatal("seeded key refilled")
		return 0, nil
	})
	if v != 1 || !hit || err != nil {
		t.Fatalf("Do on a seeded key = (%d, %v, %v), want the first seed as a hit", v, hit, err)
	}
	if m.Seeded() != 1 || m.Len() != 2 {
		t.Fatalf("Seeded %d, Len %d; want 1, 2", m.Seeded(), m.Len())
	}
}

// TestReadsSkipPendingKeys: Lookup, Len and InFlight never block on a
// fill; a pending key is counted and listed in flight but not resolved,
// and InFlight lists keys in claim order.
func TestReadsSkipPendingKeys(t *testing.T) {
	var m Map[int, string]
	release := make(chan struct{})
	var wg sync.WaitGroup
	for _, k := range []int{3, 1, 2} {
		claimed := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Do(context.Background(), k, func() (string, error) {
				close(claimed)
				<-release
				return "v", nil
			})
		}()
		<-claimed
	}
	m.Seed(9, "seeded")
	if _, _, ok := m.Lookup(1); ok {
		t.Fatal("Lookup resolved a pending key")
	}
	if v, _, ok := m.Lookup(9); !ok || v != "seeded" {
		t.Fatalf("Lookup(9) = (%q, %v), want the seed", v, ok)
	}
	if got := m.InFlight(); len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("InFlight = %v, want [3 1 2] (claim order)", got)
	}
	if m.Len() != 4 {
		t.Fatalf("Len = %d, want 4", m.Len())
	}
	close(release)
	wg.Wait()
	if got := m.InFlight(); len(got) != 0 {
		t.Fatalf("InFlight after resolution = %v", got)
	}
}
