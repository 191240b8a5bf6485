// Package floatbad is the detflow fixture for float reductions: floating
// point addition is not associative, so a reduction ordered by map
// iteration or goroutine interleaving drifts in the last bits between runs.
// Map-ordered and goroutine-ordered float reductions are flagged; per-key
// slots, integer counters, slice reductions, and ignored lines are not.
package floatbad

type stats struct {
	total float64
}

func mapReduce(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `float accumulation into outer state in map-iteration order`
	}
	return sum
}

func fieldReduce(s *stats, m map[string]float64) {
	for _, v := range m {
		s.total += v // want `float accumulation into outer state in map-iteration order`
	}
}

func perKeyIsFine(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] += v // per-key slot, each key visited once: order-free
	}
	return out
}

func intCountIsFine(m map[string]float64) int {
	n := 0
	for range m {
		n += 1 // integer accumulation is exact in any order
	}
	return n
}

func sliceReduce(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v // slice order is deterministic: allowed
	}
	return sum
}

func goReduce(xs []float64) float64 {
	var total float64
	for _, x := range xs {
		x := x
		go func() {
			total += x // want `float accumulation into shared state from a goroutine \(map-order\)`
		}()
	}
	return total
}

func ignoredReduce(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v //sddsvet:ignore detflow -- fixture: consumer tolerates last-bit drift
	}
	return sum
}
