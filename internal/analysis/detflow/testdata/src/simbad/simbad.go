// Package simbad is the detflow fixture for simulation-model code: each
// flagged line carries a want comment and sits in its own function (detflow
// reports the first cause per function and effect kind); the allowed
// patterns (seeded RNG, per-key map updates, integer counters) and the
// ignore path carry none.
package simbad

import (
	"math/rand"
	"time"
)

type engine struct{}

func (e *engine) ScheduleFunc(d int64, label string, fn func()) {}

type state struct {
	total float64
	order []int
	last  int64
}

func wallClock() int64 {
	return time.Now().UnixNano() // want `time\.Now \(wall-clock\) in deterministic package simbad`
}

func globalRand() int {
	return rand.Intn(6) // want `global math/rand\.Intn \(global-rand\)`
}

func seededRand(r *rand.Rand) int {
	return r.Intn(6) // engine-style seeded RNG: allowed
}

func deterministicSource() *rand.Rand {
	return rand.New(rand.NewSource(42)) // fixed-seed constructor: allowed
}

func scheduleInMapOrder(e *engine, pending map[int]int64) {
	for _, d := range pending {
		e.ScheduleFunc(d, "bad", func() {}) // want `call to ScheduleFunc inside map iteration \(map-order\)`
	}
}

func accumulateInMapOrder(s *state, m map[int]float64) {
	for _, v := range m {
		s.total += v // want `float accumulation into outer state in map-iteration order`
	}
}

func storeInMapOrder(s *state, m map[int]float64) {
	for k := range m {
		s.last = int64(k) // want `last-writer-wins store to outer state in map-iteration order`
	}
}

func appendInMapOrder(s *state, m map[int]float64) {
	for k := range m {
		s.order = append(s.order, k) // want `append to s in map-iteration order`
	}
}

func commutativeMapUpdates(m map[int]float64) (int, float64) {
	count := 0
	copied := make(map[int]float64, len(m))
	perKey := make(map[int]float64, len(m))
	for k, v := range m {
		copied[k] = v  // per-key copy: order-free, allowed
		perKey[k] += v // per-key accumulate: order-free, allowed
		count++        // integer counter: exact, allowed
	}
	var sum float64
	for _, v := range m {
		sum += v //sddsvet:ignore detflow -- fixture: order drift documented as acceptable here
	}
	return count, sum
}

func sliceRangeIsFine(s *state, xs []float64) {
	for _, v := range xs {
		s.total += v // slice order is deterministic: allowed
	}
}
