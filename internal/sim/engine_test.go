package sim

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sdds/internal/fault"
	"sdds/internal/probe"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndRunOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, d := range []Duration{30, 10, 20} {
		d := d
		e.Schedule(d, "t", func(now Time) { got = append(got, now) })
	}
	end := e.Run()
	want := []Time{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
	if end != 30 {
		t.Errorf("Run() = %v, want 30", end)
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.Schedule(100, "same", func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO at equal time)", i, v, i)
		}
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(10, "c", func(Time) { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(1, "x", func(Time) {})
	e.Run()
	ev.Cancel() // must not panic or corrupt state
	if e.EventsFired() != 1 {
		t.Fatalf("EventsFired = %d, want 1", e.EventsFired())
	}
}

func TestScheduleAtPastReturnsError(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(100, "advance", func(Time) {})
	e.Run()
	if _, err := e.ScheduleAt(50, "past", func(Time) {}); err == nil {
		t.Fatal("ScheduleAt in the past succeeded, want error")
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine(1)
	var at Time = -1
	e.Schedule(100, "outer", func(now Time) {
		e.Schedule(-5, "inner", func(t2 Time) { at = t2 })
	})
	e.Run()
	if at != 100 {
		t.Fatalf("negative-delay event fired at %v, want 100", at)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var trace []Time
	e.Schedule(10, "a", func(now Time) {
		trace = append(trace, now)
		e.Schedule(5, "b", func(now Time) {
			trace = append(trace, now)
		})
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("trace = %v, want [10 15]", trace)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, d := range []Duration{10, 20, 30, 40} {
		e.Schedule(d, "t", func(now Time) { fired = append(fired, now) })
	}
	now := e.RunUntil(25)
	if now != 25 {
		t.Fatalf("RunUntil = %v, want 25", now)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events before deadline, want 2", len(fired))
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
}

func TestRunUntilAdvancesClockWhenQueueEmpty(t *testing.T) {
	e := NewEngine(1)
	if got := e.RunUntil(1000); got != 1000 {
		t.Fatalf("RunUntil on empty queue = %v, want 1000", got)
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Duration(i+1), "t", func(Time) {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("ran %d events after Stop, want 3", count)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine(seed)
		var fired []Time
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 200; i++ {
			e.Schedule(Duration(rng.Intn(1000)), "t", func(now Time) {
				fired = append(fired, now)
				if e.Rand().Intn(4) == 0 {
					e.Schedule(Duration(e.Rand().Intn(50)), "n", func(now Time) {
						fired = append(fired, now)
					})
				}
			})
		}
		e.Run()
		return fired
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("runs fired %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: events always fire in nondecreasing time order, regardless of
// insertion order.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(1)
		var fired []Time
		for _, d := range delays {
			e.Schedule(Duration(d), "p", func(now Time) { fired = append(fired, now) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the set of firing times equals the multiset of scheduled times.
func TestPropertyAllEventsFireExactlyOnce(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(1)
		want := make(map[Time]int)
		got := make(map[Time]int)
		for _, d := range delays {
			want[Duration(d)]++
			e.Schedule(Duration(d), "p", func(now Time) { got[now]++ })
		}
		e.Run()
		if len(want) != len(got) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	if Second != 1_000_000 {
		t.Fatalf("Second = %d µs, want 1e6", Second)
	}
	if got := MilliToTime(2.5); got != 2500 {
		t.Fatalf("MilliToTime(2.5) = %d, want 2500", got)
	}
	if s := Time(1_500_000).Seconds(); s != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", s)
	}
	if ms := Time(2500).Milliseconds(); ms != 2.5 {
		t.Fatalf("Milliseconds = %v, want 2.5", ms)
	}
	if str := Time(1_000_000).String(); str != "1.000000s" {
		t.Fatalf("String = %q", str)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		for j := 0; j < 1000; j++ {
			e.Schedule(Duration(j%97), "b", func(Time) {})
		}
		e.Run()
	}
}

func TestPendingExcludesCancelled(t *testing.T) {
	e := NewEngine(1)
	evs := make([]Handle, 5)
	for i := range evs {
		evs[i] = e.Schedule(Duration(10+i), "p", func(Time) {})
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", e.Pending())
	}
	evs[1].Cancel()
	evs[3].Cancel()
	if e.Pending() != 3 {
		t.Fatalf("Pending after 2 cancels = %d, want 3", e.Pending())
	}
	// Double-cancel must not double-count.
	evs[1].Cancel()
	if e.Pending() != 3 {
		t.Fatalf("Pending after re-cancel = %d, want 3", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d, want 0", e.Pending())
	}
	if e.EventsFired() != 3 {
		t.Fatalf("fired %d events, want 3", e.EventsFired())
	}
	// Cancelling after the run (handles outlive firing) stays a no-op.
	evs[0].Cancel()
	if e.Pending() != 0 {
		t.Fatalf("Pending after post-run cancel = %d, want 0", e.Pending())
	}
}

func TestRunUntilCancelledHead(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	head := e.Schedule(5, "head", func(now Time) { fired = append(fired, now) })
	e.Schedule(10, "live", func(now Time) { fired = append(fired, now) })
	e.Schedule(30, "late", func(now Time) { fired = append(fired, now) })
	head.Cancel()
	if now := e.RunUntil(20); now != 20 {
		t.Fatalf("RunUntil = %v, want 20", now)
	}
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired = %v, want [10] (cancelled head skipped)", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if len(fired) != 2 || fired[1] != 30 {
		t.Fatalf("fired = %v, want [10 30]", fired)
	}
}

func TestScheduleAtExactlyNowTieBreak(t *testing.T) {
	// An event scheduled at exactly the current time from inside a handler
	// must fire after the in-flight handler returns and interleave with
	// other same-time events in scheduling order.
	e := NewEngine(1)
	var order []string
	e.Schedule(10, "outer", func(now Time) {
		order = append(order, "outer")
		if _, err := e.ScheduleAt(now, "at-now-1", func(Time) { order = append(order, "at-now-1") }); err != nil {
			t.Fatalf("ScheduleAt(now): %v", err)
		}
		e.Schedule(0, "zero-delay", func(Time) { order = append(order, "zero-delay") })
		if _, err := e.ScheduleAt(now, "at-now-2", func(Time) { order = append(order, "at-now-2") }); err != nil {
			t.Fatalf("ScheduleAt(now): %v", err)
		}
	})
	end := e.Run()
	want := []string{"outer", "at-now-1", "zero-delay", "at-now-2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if end != 10 {
		t.Fatalf("Run = %v, want 10 (at-now events must not advance the clock)", end)
	}
}

func TestScheduleFuncAndArgFire(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.ScheduleFunc(20, "f", func(now Time) { got = append(got, "func") })
	cb := func(now Time, arg any) { got = append(got, arg.(string)) }
	e.ScheduleArg(10, "a", cb, "arg")
	e.Run()
	if len(got) != 2 || got[0] != "arg" || got[1] != "func" {
		t.Fatalf("got = %v, want [arg func]", got)
	}
	if e.EventsFired() != 2 || e.EventsScheduled() != 2 {
		t.Fatalf("fired=%d scheduled=%d", e.EventsFired(), e.EventsScheduled())
	}
}

func TestFreeListRecyclesFiredEvents(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tick ArgHandler
	tick = func(now Time, arg any) {
		n++
		if n < 100 {
			e.ScheduleArg(1, "tick", tick, arg)
		}
	}
	e.ScheduleArg(1, "tick", tick, &n)
	e.Run()
	if n != 100 {
		t.Fatalf("fired %d, want 100", n)
	}
	// A self-perpetuating chain needs exactly one event object: each fire
	// recycles into the free list and the reschedule takes it back out.
	if e.FreeListLen() != 1 {
		t.Fatalf("free list holds %d events, want 1", e.FreeListLen())
	}
}

func TestSteadyStateScheduleFireDoesNotAllocate(t *testing.T) {
	e := NewEngine(1)
	var cb ArgHandler
	cb = func(now Time, arg any) {}
	// Prime: first pass may grow the heap slice and seed the free list.
	e.ScheduleArg(1, "prime", cb, e)
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleArg(1, "steady", cb, e)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocates %v objects/op, want 0", allocs)
	}
}

func TestLazyCancelCompaction(t *testing.T) {
	e := NewEngine(1)
	var live []Handle
	var cancelled []Handle
	for i := 0; i < 400; i++ {
		ev := e.Schedule(Duration(1000+i), "c", func(Time) {})
		if i%4 == 0 {
			live = append(live, ev)
		} else {
			cancelled = append(cancelled, ev)
		}
	}
	for _, ev := range cancelled {
		ev.Cancel()
	}
	// Compaction must have dropped the bulk of the dead entries from the
	// queue itself (cancels after the last compaction may linger below the
	// half-queue threshold), not just fixed the Pending accounting.
	if len(e.queue) > len(live)+len(cancelled)/2 {
		t.Fatalf("queue holds %d events after cancelling %d of %d — compaction never ran",
			len(e.queue), len(cancelled), len(live)+len(cancelled))
	}
	if e.Pending() != len(live) {
		t.Fatalf("Pending = %d, want %d", e.Pending(), len(live))
	}
	var fired []Time
	e.Schedule(2000, "end", func(now Time) { fired = append(fired, now) })
	prev := Time(-1)
	count := 0
	for e.Step() {
		if e.Now() < prev {
			t.Fatalf("time went backwards after compaction: %v < %v", e.Now(), prev)
		}
		prev = e.Now()
		count++
	}
	if count != len(live)+1 {
		t.Fatalf("fired %d events, want %d", count, len(live)+1)
	}
}

func TestEventAccessors(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(42, "x", func(Time) {})
	if ev.At() != 42 {
		t.Fatalf("At = %v", ev.At())
	}
	if e.EventsScheduled() != 1 || e.EventsFired() != 0 || e.Pending() != 1 {
		t.Fatalf("counters: sched=%d fired=%d pending=%d",
			e.EventsScheduled(), e.EventsFired(), e.Pending())
	}
	e.Run()
	if e.EventsFired() != 1 || e.Pending() != 0 {
		t.Fatalf("after run: fired=%d pending=%d", e.EventsFired(), e.Pending())
	}
}

func TestRandDeterministicPerSeed(t *testing.T) {
	a, b := NewEngine(7), NewEngine(7)
	for i := 0; i < 10; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same-seed engines diverge")
		}
	}
	c := NewEngine(8)
	same := true
	x := NewEngine(7)
	for i := 0; i < 10; i++ {
		if x.Rand().Int63() != c.Rand().Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRunContextCancellation(t *testing.T) {
	// A self-perpetuating event chain never drains the queue; only the
	// context check can stop it.
	// The cancelling goroutine starts from the first event, so the run is
	// under way before cancellation can land.
	e := NewEngine(1)
	ctx, cancel := context.WithCancel(context.Background())
	var reschedule Handler
	reschedule = func(now Time) {
		if now == 0 {
			go cancel()
		}
		e.Schedule(1, "tick", reschedule)
	}
	e.Schedule(0, "tick", reschedule)
	if _, err := e.RunContext(ctx); err == nil {
		t.Fatal("RunContext returned nil error under cancellation")
	}
	if e.EventsFired() == 0 {
		t.Fatal("no events fired before cancellation check")
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(0, "x", func(now Time) { fired = true })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunContext(ctx); err == nil {
		t.Fatal("pre-cancelled context accepted")
	}
	if fired {
		t.Fatal("event fired despite pre-cancelled context")
	}
}

func TestRunContextDrainsWithBackground(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Schedule(5, "x", func(now Time) { n++ })
	end, err := e.RunContext(context.Background())
	if err != nil || n != 1 || end != 5 {
		t.Fatalf("RunContext = %v, %v (n=%d)", end, err, n)
	}
}

// Reset returns an engine to what NewEngine builds, in place: the RNG
// replays the seed's sequence, the clock and counters restart at zero,
// the probe and injector are dropped, and events still queued are
// recycled unfired. Handles from before the reset stay stale once their
// events are reissued.
func TestResetMatchesNewEngine(t *testing.T) {
	e := NewEngine(1)
	e.SetProbe(probe.NewProbe(16))
	e.SetFaults(fault.NewInjector(&fault.Config{MaxRetries: 1}, 1))
	e.Rand().Int63()
	e.ScheduleFunc(5, "fired", func(Time) {})
	stale := e.Schedule(50, "queued", func(Time) { t.Fatal("an event queued before Reset fired") })
	e.RunUntil(10)

	e.Reset(7)
	fresh := NewEngine(7)
	if e.Now() != 0 || e.EventsFired() != 0 || e.EventsScheduled() != 0 || e.Pending() != 0 {
		t.Fatalf("after Reset: now %v, fired %d, scheduled %d, pending %d", e.Now(), e.EventsFired(), e.EventsScheduled(), e.Pending())
	}
	if e.Probe() != nil || e.Faults() != nil {
		t.Fatal("Reset kept the probe or the injector")
	}
	for i := 0; i < 8; i++ {
		if a, b := e.Rand().Int63(), fresh.Rand().Int63(); a != b {
			t.Fatalf("draw %d after Reset(7) = %d, NewEngine(7) = %d", i, a, b)
		}
	}
	if e.FreeListLen() != 2 {
		t.Fatalf("free list holds %d events, want both from before the reset", e.FreeListLen())
	}
	e.ScheduleFunc(1, "a", func(Time) {})
	e.ScheduleFunc(1, "b", func(Time) {})
	stale.Cancel()
	if stale.At() != 0 || e.Pending() != 2 {
		t.Fatalf("stale handle reads At %v and cancelled a reissued event (pending %d)", stale.At(), e.Pending())
	}
	if end := e.Run(); end != 1 || e.EventsFired() != 2 {
		t.Fatalf("run after Reset ended at %v with %d events fired", end, e.EventsFired())
	}
}
