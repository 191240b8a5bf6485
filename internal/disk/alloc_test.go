package disk

import (
	"runtime"
	"testing"

	"sdds/internal/sim"
)

// TestAbortedSpinDownAllocatesNothing pins the cancellable spin-down: once
// warm, SpinDown (which arms the standby completion) followed by
// abortSpinDown (which cancels it and spins back up) allocates nothing.
func TestAbortedSpinDownAllocatesNothing(t *testing.T) {
	// MemStats counts every goroutine's allocations: hold one P across the
	// window, as testing.AllocsPerRun does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eng, d := testDisk(t)
	cycle := func() {
		if err := d.SpinDown(); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(eng.Now() + sim.Second)
		d.abortSpinDown(eng.Now())
		eng.Run()
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("SpinDown+abortSpinDown allocates %v objects, want 0", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10_000; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("10k cycles made %d allocations, want 0", n)
	}
	if st := d.Stats(); st.SpinDowns != st.SpinUps || d.State() != StateIdle {
		t.Fatalf("spin-downs %d, spin-ups %d, state %v: want every spin-down aborted",
			st.SpinDowns, st.SpinUps, d.State())
	}
}
