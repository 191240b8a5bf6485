package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// TestHandleStates covers At, Cancelled and Cancel on a handle in each of
// its states: live (pending), cancelled, fired, and the zero Handle.
func TestHandleStates(t *testing.T) {
	e := NewEngine(1)
	fired := map[string]bool{}
	mark := func(name string) Handler { return func(Time) { fired[name] = true } }

	live := e.Schedule(30, "live", mark("live"))
	cancelled := e.Schedule(20, "cancelled", mark("cancelled"))
	done := e.Schedule(10, "fired", mark("fired"))
	var zero Handle

	cancelled.Cancel()
	e.RunUntil(15) // fires "fired"; the other two stay queued

	cases := []struct {
		name          string
		h             Handle
		at            Time
		wasCancelled  bool
		pendingCancel int // Pending drop a Cancel on this handle causes
	}{
		{"live", live, 30, false, 1},
		{"cancelled", cancelled, 20, true, 0},
		{"fired", done, 10, false, 0},
		{"zero", zero, 0, false, 0},
	}
	for _, c := range cases {
		if got := c.h.At(); got != c.at {
			t.Errorf("%s: At = %v, want %v", c.name, got, c.at)
		}
		if got := c.h.Cancelled(); got != c.wasCancelled {
			t.Errorf("%s: Cancelled = %v, want %v", c.name, got, c.wasCancelled)
		}
		before := e.Pending()
		c.h.Cancel()
		if drop := before - e.Pending(); drop != c.pendingCancel {
			t.Errorf("%s: Cancel dropped Pending by %d, want %d", c.name, drop, c.pendingCancel)
		}
	}
	// The live handle is now cancelled too: it reports so, and nothing but
	// the first event ever fires.
	if !live.Cancelled() {
		t.Error("live: Cancelled = false after Cancel")
	}
	e.Run()
	if !fired["fired"] || fired["live"] || fired["cancelled"] || len(fired) != 1 {
		t.Fatalf("fired = %v, want only the uncancelled event", fired)
	}
	if e.Pending() != 0 || e.EventsFired() != 1 {
		t.Fatalf("pending=%d fired=%d, want 0 and 1", e.Pending(), e.EventsFired())
	}
}

// TestStaleHandleCancelsNothing keeps a handle past its event's firing and
// past a later Schedule that reissues the same event struct: the old handle
// must neither cancel nor describe the new event.
func TestStaleHandleCancelsNothing(t *testing.T) {
	e := NewEngine(1)
	old := e.Schedule(5, "old", func(Time) {})
	e.Run()
	if e.FreeListLen() != 1 {
		t.Fatalf("free list holds %d events after one fire, want 1", e.FreeListLen())
	}
	fired := false
	cur := e.Schedule(5, "new", func(Time) { fired = true })
	if cur.ev != old.ev {
		t.Fatal("Schedule did not reuse the fired event; the test needs the reuse")
	}
	if old.At() != 0 || old.Cancelled() {
		t.Fatalf("stale handle: At=%v Cancelled=%v, want 0 and false", old.At(), old.Cancelled())
	}
	old.Cancel()
	if cur.Cancelled() || e.Pending() != 1 {
		t.Fatalf("stale Cancel reached the reissued event: Cancelled=%v Pending=%d", cur.Cancelled(), e.Pending())
	}
	e.Run()
	if !fired {
		t.Fatal("reissued event did not fire")
	}

	// The same holds for a handle whose cancelled event was dropped from
	// the queue and reissued.
	dropped := e.Schedule(1, "dropped", func(Time) { t.Error("cancelled event fired") })
	dropped.Cancel()
	e.Run()
	fired = false
	cur = e.Schedule(1, "again", func(Time) { fired = true })
	if cur.ev != dropped.ev {
		t.Fatal("Schedule did not reuse the dropped event; the test needs the reuse")
	}
	if dropped.Cancelled() {
		t.Fatal("stale handle reports the reissued event as cancelled")
	}
	dropped.Cancel()
	e.Run()
	if !fired {
		t.Fatal("stale Cancel of a dropped event cancelled its reissue")
	}
}

// TestTimerRearmDoesNotAllocate pins the power-policy timer shape: cancel
// the held handle, arm a new one with a pre-bound Handler, fire. Once the
// free list is warm no step allocates.
func TestTimerRearmDoesNotAllocate(t *testing.T) {
	e := NewEngine(1)
	var fn Handler = func(Time) {}
	var timer Handle
	rearm := func() {
		timer.Cancel()
		timer = e.Schedule(10, "rearm", fn)
		timer.Cancel()
		timer = e.Schedule(5, "rearm", fn)
		e.Run()
	}
	rearm()
	if allocs := testing.AllocsPerRun(1000, rearm); allocs != 0 {
		t.Fatalf("cancel+re-arm+fire allocates %v objects/op, want 0", allocs)
	}
}

// firingWorkload runs a seeded mix of Schedule, ScheduleAt, ScheduleArg and
// ScheduleFunc with cancels and re-arms (cancel the handle held in a slot,
// then arm a new one there), issued both up front and from inside handlers.
// Slots keep their handles after the events fire or are dropped, so later
// cancels also hit stale handles. Bursts of cancels drive queue compaction.
// It returns the SHA-256 of every fired (time, label) pair followed by the
// engine's final counters.
func firingWorkload(seed int64) string {
	e := NewEngine(seed)
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	labels := [...]string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var slots [256]Handle
	budget := 40000

	var act func()
	onArg := func(now Time, arg any) {
		put(uint64(now))
		h.Write([]byte(arg.(string)))
		act()
	}
	handler := func(label string) Handler {
		return func(now Time) {
			put(uint64(now))
			h.Write([]byte(label))
			act()
		}
	}
	onFire := handler("fn")
	act = func() {
		n := rng.Intn(3)
		if e.Pending() < 300 {
			n += 2 // keep the queue deep enough to compact
		}
		for ; n > 0; n-- {
			delay := Duration(rng.Intn(64))
			label := labels[rng.Intn(len(labels))]
			slot := rng.Intn(len(slots))
			if budget <= 0 {
				slots[slot].Cancel()
				continue
			}
			budget--
			switch op := rng.Intn(64); {
			case op < 20: // re-arm through Schedule
				slots[slot].Cancel()
				slots[slot] = e.Schedule(delay, label, handler(label))
			case op < 28: // re-arm through ScheduleAt
				slots[slot].Cancel()
				hd, err := e.ScheduleAt(e.Now()+delay, label, handler(label))
				if err != nil {
					panic(err)
				}
				slots[slot] = hd
			case op < 36:
				e.ScheduleArg(delay, label, onArg, label)
			case op < 44:
				e.ScheduleFunc(delay, label, onFire)
			case op < 63: // cancel only, possibly a stale handle
				slots[slot].Cancel()
			default: // burst: cancel every slot
				for i := range slots {
					slots[i].Cancel()
				}
			}
		}
	}
	for i := range slots {
		slots[i] = e.Schedule(Duration(rng.Intn(64)), labels[i%len(labels)], handler(labels[i%len(labels)]))
	}
	for i := 0; i < 200; i++ {
		e.ScheduleArg(Duration(rng.Intn(64)), "seed", onArg, "seed")
	}
	e.Run()
	put(e.EventsFired())
	put(e.EventsScheduled())
	put(uint64(e.Pending()))
	put(uint64(e.Now()))
	return hex.EncodeToString(h.Sum(nil))
}

// firingWorkloadSHA is the firingWorkload hash over seeds 1–4, generated
// with the engine whose Schedule returned never-recycled *Event pointers.
// Recycling every event must not move a single firing.
const firingWorkloadSHA = "271b1b856f5d945ab93e03caa3470e803eb7e934834b3279c2064da52e75bd9b"

// TestFiringOrderFingerprint pins the engine's firing order across the
// switch to recycled, handle-addressed events.
func TestFiringOrderFingerprint(t *testing.T) {
	h := sha256.New()
	for seed := int64(1); seed <= 4; seed++ {
		h.Write([]byte(firingWorkload(seed)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != firingWorkloadSHA {
		t.Fatalf("firing-order fingerprint = %s, want %s", got, firingWorkloadSHA)
	}
}
