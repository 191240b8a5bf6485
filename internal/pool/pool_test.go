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
