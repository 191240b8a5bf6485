package ionode

import (
	"math/rand"
	"testing"

	"sdds/internal/cache"
)

// TestFetchTableMatchesMap drives the in-flight index with random adds and
// removes over a small key space, so probe runs collide, wrap and shift
// back often, and checks every key against a map after each operation.
func TestFetchTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tab fetchTable
	want := map[cache.Key]*unitFetch{}
	keys := make([]cache.Key, 0, 600)
	for f := 0; f < 3; f++ {
		for b := int64(0); b < 200; b++ {
			keys = append(keys, cache.Key{File: f, Block: b})
		}
	}
	for op := 0; op < 20000; op++ {
		k := keys[rng.Intn(len(keys))]
		// Bias towards adds until about 300 are in flight, then churn.
		if _, ok := want[k]; ok && (len(want) > 300 || rng.Intn(3) == 0) {
			tab.remove(k)
			delete(want, k)
		} else if !ok {
			f := &unitFetch{key: k}
			tab.add(f)
			want[k] = f
		}
		if tab.n != len(want) {
			t.Fatalf("op %d: %d in flight, want %d", op, tab.n, len(want))
		}
		if op%97 != 0 {
			continue
		}
		for _, k := range keys {
			if got := tab.get(k); got != want[k] {
				t.Fatalf("op %d: get(%v) = %p, want %p", op, k, got, want[k])
			}
		}
	}
	tab.reset()
	for _, k := range keys {
		if tab.get(k) != nil {
			t.Fatalf("get(%v) after reset is not nil", k)
		}
	}
}

// TestFetchTableChurnAllocatesNothing pins that a table grown to a run's
// peak serves any later traffic up to that peak, across reset, without
// allocating.
func TestFetchTableChurnAllocatesNothing(t *testing.T) {
	const peak = 200
	fetches := make([]*unitFetch, 4*peak)
	for i := range fetches {
		fetches[i] = &unitFetch{key: cache.Key{File: i % 3, Block: int64(i)}}
	}
	var tab fetchTable
	for _, f := range fetches[:peak] {
		tab.add(f)
	}
	tab.reset()
	next := 0
	allocs := testing.AllocsPerRun(50, func() {
		// A sliding window of peak fetches: each add past the window
		// removes the oldest.
		for i := 0; i < len(fetches); i++ {
			tab.add(fetches[(next+i)%len(fetches)])
			if i >= peak-1 {
				tab.remove(fetches[(next+i-peak+1)%len(fetches)].key)
			}
		}
		tab.reset()
		next += 17
	})
	if allocs != 0 {
		t.Fatalf("in-flight churn made %v allocations per run, want 0", allocs)
	}
}
