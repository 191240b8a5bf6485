package pool

import "testing"

type item struct{ n int }

func TestGetReusesReleasedStructs(t *testing.T) {
	allocs := 0
	p := New(func() *item { allocs++; return &item{} })
	a, b := p.Get(), p.Get()
	if a == b || allocs != 2 || p.Live() != 2 {
		t.Fatalf("two Gets: same=%v allocs=%d live=%d", a == b, allocs, p.Live())
	}
	p.Put(a)
	if c := p.Get(); c != a || allocs != 2 {
		t.Fatalf("Get after Put allocated (allocs=%d) or returned another struct", allocs)
	}
	p.Put(a)
	p.Put(b)
	if p.Live() != 0 {
		t.Fatalf("live = %d after releasing everything", p.Live())
	}
}

func TestCheckCatchesDoubleRelease(t *testing.T) {
	c := Check()
	p := New(func() *item { return &item{} })
	c.Stop()
	unchecked := New(func() *item { return &item{} })
	if c.Pools() != 1 {
		t.Fatalf("checker registered %d pools, want only the one created while active", c.Pools())
	}
	x := p.Get()
	if c.Live() != 1 {
		t.Fatalf("checker live = %d, want 1", c.Live())
	}
	p.Put(x)
	defer func() {
		if recover() == nil {
			t.Fatal("second release of the same struct did not panic")
		}
	}()
	unchecked.Put(unchecked.Get())
	p.Put(x)
}

// Reset keeps every struct and hands them out again in one fixed order,
// whatever order they were released in; it registers the pool once with
// the active checker, and refuses a pool with a struct still in flight.
func TestResetFixesHandOutOrder(t *testing.T) {
	allocs := 0
	p := New(func() *item { allocs++; return &item{n: allocs} })
	a, b := p.Get(), p.Get()
	p.Put(b)
	p.Put(a)
	p.Reset() // fixes the order: b, then a, then structs allocated later
	a, b, c := p.Get(), p.Get(), p.Get()
	p.Put(a)
	p.Put(c)
	p.Put(b)
	checker := Check()
	defer checker.Stop()
	p.Reset()
	p.Reset()
	if checker.Pools() != 1 {
		t.Fatalf("checker registered the reset pool %d times, want once", checker.Pools())
	}
	for _, want := range []int{3, 1, 2} {
		if x := p.Get(); x.n != want {
			t.Fatalf("after Reset, Get returned struct %d, want %d", x.n, want)
		}
	}
	if allocs != 3 || checker.Live() != 3 {
		t.Fatalf("allocs %d, checked live %d after three Gets", allocs, checker.Live())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with structs in flight did not panic")
		}
	}()
	p.Reset()
}
