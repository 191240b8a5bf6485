package power

import (
	"runtime"
	"testing"

	"sdds/internal/disk"
	"sdds/internal/sim"
)

// TestPolicyCycleAllocatesNothing pins every timer-holding policy's cycle
// allocation-free once warm: a request arrives, is served, the idle start
// arms the policy's timer, and the timer fires (spin-down, early wake, RPM
// drop or step) before the next request. It checks AllocsPerRun and the
// Mallocs total over 10k cycles.
func TestPolicyCycleAllocatesNothing(t *testing.T) {
	// MemStats counts every goroutine's allocations: hold one P across the
	// windows, as testing.AllocsPerRun does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, kind := range ManagedKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			eng, d, p := newRig(t, kind)
			r := &disk.Request{Op: disk.OpRead, Sector: 0, Bytes: 4096}
			// Two-minute gaps let every timer fire and every transition
			// finish, and stay above the predictive policy's spin-down
			// threshold. History parks at its lowest speed, arming no
			// timer, once it predicts gaps over about 1.4 s; half-second
			// gaps keep it choosing a middle speed and arming its ramp.
			gap := 2 * sim.Minute
			if kind == KindHistory {
				gap = 500 * sim.Millisecond
			}
			cycle := func() {
				if err := d.Submit(r); err != nil {
					t.Fatal(err)
				}
				eng.RunUntil(eng.Now() + gap)
			}
			for i := 0; i < 20; i++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Fatalf("cycle allocates %v objects, want 0", allocs)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fired := eng.EventsFired()
			for i := 0; i < 10_000; i++ {
				cycle()
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Fatalf("10k cycles made %d allocations, want 0", n)
			}
			st := d.Stats()
			if eng.EventsFired()-fired < 4*10_000 || st.SpinDowns+st.RPMShifts == 0 {
				t.Fatalf("fired %d events, spin-downs %d, shifts %d: timers not exercised",
					eng.EventsFired()-fired, st.SpinDowns, st.RPMShifts)
			}
			early := kind == KindPredictive || kind == KindHistory
			if ps := p.(StatsReporter).PolicyStats(); early && ps.PreActivations == 0 {
				t.Fatal("ahead-of-time timer never fired")
			}
		})
	}
}
