package harness

import (
	"context"
	"sync"
	"testing"
)

// TestGapTraceNotSharedAcrossRuns backs the lock-free contract documented
// on metrics.GapTrace: RecordIdle runs without a mutex because every
// policy=oracle run builds a private trace for its own record/replay pass
// pair. The oracle experiment runs those requests, so we run it from
// several goroutines at once — each through its own session so nothing is
// deduplicated away — and let the race detector prove that no trace ever
// crosses between concurrently executing runs. A regression
// that hoisted the trace into shared state (or replayed one while another
// run still records into it) shows up here as a data race.
func TestGapTraceNotSharedAcrossRuns(t *testing.T) {
	e, err := ByID("oracle")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scale: 0.02, Apps: []string{"sar"}, Seed: 1}

	const goroutines = 3
	outs := make([]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A fresh session per goroutine: a shared session would serve
			// repeats from cache and the trace would only be built once.
			res, err := NewSession(SessionOptions{Workers: 2}).Run(context.Background(), e, cfg)
			if err != nil {
				errs[g] = err
				return
			}
			outs[g] = res.Render()
		}()
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if outs[g] != outs[0] {
			t.Fatalf("goroutine %d rendered a different oracle table than goroutine 0", g)
		}
	}
}
