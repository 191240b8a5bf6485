package cache

import (
	"slices"
	"testing"
)

// refCache is the naive reference FuzzRecency checks both caches against:
// one slice of blocks, most recent first, scanned linearly for every
// operation. active is nil for LRU.
type refCache struct {
	capacity  int64
	lookahead int
	active    func(Key) bool
	palru     bool
	entries   []slot // key and size only; most recent first

	hits, misses, evictions, protections int64
}

func (r *refCache) find(k Key) int {
	return slices.IndexFunc(r.entries, func(e slot) bool { return e.key == k })
}

func (r *refCache) used() int64 {
	var sum int64
	for _, e := range r.entries {
		sum += e.size
	}
	return sum
}

func (r *refCache) toFront(i int) {
	e := r.entries[i]
	r.entries = slices.Insert(slices.Delete(r.entries, i, i+1), 0, e)
}

func (r *refCache) get(k Key) (int64, bool) {
	i := r.find(k)
	if i < 0 {
		r.misses++
		return 0, false
	}
	r.hits++
	r.toFront(i)
	return r.entries[0].size, true
}

func (r *refCache) remove(k Key) bool {
	i := r.find(k)
	if i >= 0 {
		r.entries = slices.Delete(r.entries, i, i+1)
	}
	return i >= 0
}

func (r *refCache) put(k Key, size int64) bool {
	if size <= 0 || size > r.capacity {
		return false
	}
	if i := r.find(k); i >= 0 {
		r.entries[i].size = size
		r.toFront(i)
	} else {
		r.entries = slices.Insert(r.entries, 0, slot{key: k, size: size})
	}
	for r.used() > r.capacity {
		v := r.victim(k)
		if v < 0 {
			break
		}
		r.entries = slices.Delete(r.entries, v, v+1)
		r.evictions++
	}
	return true
}

// victim is the LRU tail, or PALRU's pick: the first block with an active
// disk among the lookahead oldest blocks other than k, else the oldest.
func (r *refCache) victim(k Key) int {
	if !r.palru {
		return len(r.entries) - 1
	}
	fallback, scanned := -1, 0
	for i := len(r.entries) - 1; i >= 0 && scanned < r.lookahead; i-- {
		if r.entries[i].key == k {
			continue
		}
		scanned++
		if fallback < 0 {
			fallback = i
		}
		if r.active == nil || r.active(r.entries[i].key) {
			if i != fallback {
				r.protections++
			}
			return i
		}
	}
	return fallback
}

// FuzzRecency decodes its input as a capacity byte, a lookahead byte, then
// three bytes per operation: the operation (Put, Get, Remove or Contains),
// the key (file and block) and, for Put, the size. Sizes run from -4 to 251
// against capacities of 1 to 766, so Puts are rejected, refreshed in place,
// evict, and shrink below the first block's size to grow the index. After
// every operation each cache must agree with refCache on the result,
// Keys order, Len, Used and Stats, and PALRU on Protections too.
func FuzzRecency(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := 1 + 3*int64(data[0])
		lookahead := 1 + int(data[1]%8)
		active := func(k Key) bool { return (k.Block+int64(k.File))%3 != 0 }
		pal, err := NewPALRU(capacity, active, lookahead)
		if err != nil {
			t.Fatal(err)
		}
		type cacheUnderTest interface {
			Store
			Keys() []Key
		}
		caches := []cacheUnderTest{MustNew(capacity), pal}
		refs := []*refCache{
			{capacity: capacity},
			{capacity: capacity, lookahead: lookahead, active: active, palru: true},
		}
		for pos := 2; pos+3 <= len(data); pos += 3 {
			op, kb, sb := data[pos]%4, data[pos+1], data[pos+2]
			k := Key{File: int(kb >> 6), Block: int64(kb & 63)}
			size := int64(sb) - 4
			for ci, c := range caches {
				r := refs[ci]
				switch op {
				case 0:
					if got, want := c.Put(k, size), r.put(k, size); got != want {
						t.Fatalf("%T op %d: Put(%v, %d) = %v, want %v", c, pos, k, size, got, want)
					}
				case 1:
					gs, gok := c.Get(k)
					ws, wok := r.get(k)
					if gs != ws || gok != wok {
						t.Fatalf("%T op %d: Get(%v) = %d, %v, want %d, %v", c, pos, k, gs, gok, ws, wok)
					}
				case 2:
					if got, want := c.Remove(k), r.remove(k); got != want {
						t.Fatalf("%T op %d: Remove(%v) = %v, want %v", c, pos, k, got, want)
					}
				case 3:
					if got, want := c.Contains(k), r.find(k) >= 0; got != want {
						t.Fatalf("%T op %d: Contains(%v) = %v, want %v", c, pos, k, got, want)
					}
				}
				want := make([]Key, len(r.entries))
				for i, e := range r.entries {
					want[i] = e.key
				}
				if got := c.Keys(); !slices.Equal(got, want) {
					t.Fatalf("%T op %d: Keys = %v, want %v", c, pos, got, want)
				}
				if c.Len() != len(r.entries) || c.Used() != r.used() {
					t.Fatalf("%T op %d: Len=%d Used=%d, want %d and %d", c, pos, c.Len(), c.Used(), len(r.entries), r.used())
				}
				h, m, e := c.Stats()
				if h != r.hits || m != r.misses || e != r.evictions {
					t.Fatalf("%T op %d: Stats = %d/%d/%d, want %d/%d/%d", c, pos, h, m, e, r.hits, r.misses, r.evictions)
				}
			}
			if pal.Protections() != refs[1].protections {
				t.Fatalf("op %d: Protections = %d, want %d", pos, pal.Protections(), refs[1].protections)
			}
		}
	})
}
