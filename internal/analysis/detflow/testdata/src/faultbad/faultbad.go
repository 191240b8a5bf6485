// Package faultbad is the detflow fixture for the fault-injection layer:
// an injector that decides hits from the globally-seeded RNG or the wall
// clock would silently break run reproducibility, so both are flagged.
// The splitmix-style counter stream the real injector uses is allowed.
package faultbad

import (
	"math/rand"
	"time"
)

type injector struct {
	state     [4]uint64
	threshold [4]uint64
	injected  [4]int64
}

func (in *injector) hitFromGlobalRand(site int) bool {
	return rand.Uint64() < in.threshold[site] // want `global math/rand\.Uint64 \(global-rand\)`
}

func (in *injector) hitFromWallClock(site int) bool {
	return time.Now().UnixNano()&1 == 0 // want `time\.Now \(wall-clock\)`
}

func (in *injector) hitFromFloat(site int) bool {
	return rand.Float64() < 0.01 // want `global math/rand\.Float64 \(global-rand\)`
}

// hit is the real injector's shape: a per-site splitmix64 counter stream,
// deterministic in the seed. Allowed.
func (in *injector) hit(site int) bool {
	th := in.threshold[site]
	if th == 0 {
		return false
	}
	in.state[site] += 0x9E3779B97F4A7C15
	x := in.state[site]
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	if x >= th {
		return false
	}
	in.injected[site]++
	return true
}

// seededStream is the engine-style seeded RNG constructor: allowed.
func seededStream(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
