package sched

import (
	"strings"
	"testing"

	"sdds/internal/core"
	"sdds/internal/sim"
)

func TestBufferReserveCommitConsume(t *testing.T) {
	b := MustNewGlobalBuffer(100)
	if !b.Reserve(1, 60) {
		t.Fatal("Reserve failed")
	}
	if b.Reserve(1, 10) {
		t.Fatal("duplicate Reserve succeeded")
	}
	if b.Reserve(2, 50) {
		t.Fatal("over-capacity Reserve succeeded")
	}
	if b.TryConsume(1) {
		t.Fatal("pending entry consumed as hit")
	}
	// The bypass released the space.
	if b.Used() != 0 {
		t.Fatalf("Used = %d after bypass", b.Used())
	}
	if b.Commit(1) {
		t.Fatal("Commit of bypassed entry succeeded")
	}
	// Normal path.
	if !b.Reserve(3, 40) || !b.Commit(3) {
		t.Fatal("reserve+commit failed")
	}
	if !b.Resident(3) {
		t.Fatal("committed entry not resident")
	}
	if !b.TryConsume(3) {
		t.Fatal("hit missed")
	}
	if b.Used() != 0 {
		t.Fatalf("Used = %d after consume", b.Used())
	}
	hits, misses, inserted, dropped := b.Stats()
	if hits != 1 || misses != 1 || inserted != 1 || dropped != 1 {
		t.Fatalf("stats: %d %d %d %d", hits, misses, inserted, dropped)
	}
}

func TestBufferValidation(t *testing.T) {
	if _, err := NewGlobalBuffer(0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	b := MustNewGlobalBuffer(10)
	if b.Reserve(1, 0) || b.Reserve(1, 11) {
		t.Fatal("bad sizes accepted")
	}
	b.Abort(99) // no-op must not panic
}

// fakeFetcher records fetches and completes them when told.
type fakeFetcher struct {
	eng     *sim.Engine
	delay   sim.Duration
	fetched []int64
	fail    bool
}

func (f *fakeFetcher) Fetch(file int, offset, length int64, done func(sim.Time, bool)) error {
	if f.fail {
		return errTest
	}
	f.fetched = append(f.fetched, offset)
	f.eng.Schedule(f.delay, "fake.fetch", func(now sim.Time) { done(now, true) })
	return nil
}

var errTest = errFake{}

type errFake struct{}

func (errFake) Error() string { return "fake failure" }

type fakeClock struct{ min int }

func (c *fakeClock) MinSlot() int { return c.min }

func mkEntry(id, slot, orig int) core.Entry {
	return core.Entry{Slot: slot, AccessID: id, Orig: orig, Length: 1}
}

func mkAgent(t *testing.T, eng *sim.Engine, table []core.Entry, infos map[int]AccessInfo, buf *GlobalBuffer, clock LocalClock) (*Agent, *fakeFetcher) {
	t.Helper()
	f := &fakeFetcher{eng: eng, delay: 10}
	resolve := func(id int) (AccessInfo, bool) {
		in, ok := infos[id]
		return in, ok
	}
	a, err := NewAgent(0, table, resolve, f, buf, clock)
	if err != nil {
		t.Fatal(err)
	}
	return a, f
}

func TestAgentFiltersUnmovedEntries(t *testing.T) {
	eng := sim.NewEngine(1)
	buf := MustNewGlobalBuffer(1 << 20)
	table := []core.Entry{
		mkEntry(1, 5, 10), // moved earlier → kept
		mkEntry(2, 7, 7),  // at original point → dropped
		mkEntry(3, 9, 8),  // later than original → dropped
	}
	a, _ := mkAgent(t, eng, table, map[int]AccessInfo{}, buf, &fakeClock{min: 100})
	if got := a.PendingEntries(); got != 1 {
		t.Fatalf("kept %d entries, want 1", got)
	}
}

func TestAgentIssuesDueEntries(t *testing.T) {
	eng := sim.NewEngine(1)
	buf := MustNewGlobalBuffer(1 << 20)
	infos := map[int]AccessInfo{
		1: {File: 0, Offset: 100, Length: 64, WriterSlot: -1},
		2: {File: 0, Offset: 200, Length: 64, WriterSlot: -1},
		3: {File: 0, Offset: 300, Length: 64, WriterSlot: -1},
	}
	// Entry 3 sits at its original point: due with the others, but never
	// prefetched.
	table := []core.Entry{mkEntry(1, 2, 10), mkEntry(2, 6, 12), mkEntry(3, 7, 7)}
	clock := &fakeClock{min: 3}
	a, f := mkAgent(t, eng, table, infos, buf, clock)
	// Dueness follows the global clock: at min slot 3 only the slot-2
	// entry fires, even though this agent's own process is at slot 5.
	a.AdvanceTo(5, eng.Now())
	if len(f.fetched) != 1 || f.fetched[0] != 100 {
		t.Fatalf("fetched = %v, want [100]", f.fetched)
	}
	clock.min = 6
	a.Pump(eng.Now())
	if len(f.fetched) != 2 || a.PendingEntries() != 0 {
		t.Fatalf("fetched = %v with %d pending, want both moved entries and none pending", f.fetched, a.PendingEntries())
	}
	eng.Run()
	if !buf.Resident(1) || !buf.Resident(2) {
		t.Fatal("prefetched data not resident")
	}
}

func TestAgentDefersOnWriterLocalTime(t *testing.T) {
	eng := sim.NewEngine(1)
	buf := MustNewGlobalBuffer(1 << 20)
	clock := &fakeClock{min: 3}
	infos := map[int]AccessInfo{1: {Length: 64, WriterSlot: 5}}
	a, f := mkAgent(t, eng, []core.Entry{mkEntry(1, 2, 20)}, infos, buf, clock)
	a.AdvanceTo(4, eng.Now())
	if len(f.fetched) != 0 {
		t.Fatal("fetched before producer passed the write point")
	}
	_, _, deferred := a.Stats()
	if deferred == 0 {
		t.Fatal("no deferral recorded")
	}
	clock.min = 6
	a.Pump(eng.Now())
	if len(f.fetched) != 1 {
		t.Fatal("fetch not issued after producer advanced")
	}
}

func TestAgentStopsWhenBufferFull(t *testing.T) {
	eng := sim.NewEngine(1)
	buf := MustNewGlobalBuffer(100)
	infos := map[int]AccessInfo{
		1: {Length: 80, WriterSlot: -1},
		2: {Length: 80, WriterSlot: -1},
	}
	table := []core.Entry{mkEntry(1, 0, 50), mkEntry(2, 1, 50)}
	a, f := mkAgent(t, eng, table, infos, buf, &fakeClock{min: 100})
	a.AdvanceTo(2, eng.Now())
	if len(f.fetched) != 1 {
		t.Fatalf("fetched %d, want 1 (second blocked on full buffer)", len(f.fetched))
	}
	eng.Run() // first fetch commits
	// Consume entry 1 → space frees → pump issues entry 2.
	if !buf.TryConsume(1) {
		t.Fatal("entry 1 not resident")
	}
	a.Pump(eng.Now())
	if len(f.fetched) != 2 {
		t.Fatal("second fetch not issued after space freed")
	}
}

func TestAgentDropsStaleEntries(t *testing.T) {
	eng := sim.NewEngine(1)
	buf := MustNewGlobalBuffer(1 << 20)
	infos := map[int]AccessInfo{1: {Length: 64, WriterSlot: -1}}
	// Due at slot 5, original point 8 — but the process has already reached
	// slot 9 when the agent first runs: prefetching is pointless.
	a, f := mkAgent(t, eng, []core.Entry{mkEntry(1, 5, 8)}, infos, buf, &fakeClock{min: 100})
	a.AdvanceTo(9, eng.Now())
	if len(f.fetched) != 0 {
		t.Fatal("stale entry fetched")
	}
	if a.PendingEntries() != 0 {
		t.Fatal("stale entry not dropped")
	}
}

func TestAgentFetchErrorAbortsReservation(t *testing.T) {
	eng := sim.NewEngine(1)
	buf := MustNewGlobalBuffer(100)
	f := &fakeFetcher{eng: eng, fail: true}
	resolve := func(id int) (AccessInfo, bool) { return AccessInfo{Length: 60, WriterSlot: -1}, true }
	a, err := NewAgent(0, []core.Entry{mkEntry(1, 0, 9)}, resolve, f, buf, &fakeClock{min: 100})
	if err != nil {
		t.Fatal(err)
	}
	a.AdvanceTo(1, eng.Now())
	if buf.Used() != 0 {
		t.Fatalf("reservation leaked: Used = %d", buf.Used())
	}
}

func TestNewAgentNilDeps(t *testing.T) {
	if _, err := NewAgent(0, nil, nil, nil, nil, nil); err == nil {
		t.Fatal("nil deps accepted")
	}
}

// The agent walks its table in place, so it must refuse one out of slot
// order rather than issue its entries out of order.
func TestNewAgentRejectsUnsortedTable(t *testing.T) {
	resolve := func(int) (AccessInfo, bool) { return AccessInfo{}, false }
	table := []core.Entry{mkEntry(1, 5, 10), mkEntry(2, 5, 10), mkEntry(3, 4, 10)}
	_, err := NewAgent(0, table, resolve, &fakeFetcher{}, MustNewGlobalBuffer(1<<20), &fakeClock{})
	if err == nil || !strings.Contains(err.Error(), "entry 2 at slot 4 follows slot 5") {
		t.Fatalf("NewAgent = %v, want an error naming entry 2", err)
	}
}

func TestBypassThenLateCommitReleasesSpace(t *testing.T) {
	eng := sim.NewEngine(1)
	buf := MustNewGlobalBuffer(100)
	infos := map[int]AccessInfo{1: {Length: 60, WriterSlot: -1}}
	a, _ := mkAgent(t, eng, []core.Entry{mkEntry(1, 0, 9)}, infos, buf, &fakeClock{min: 100})
	a.AdvanceTo(0, eng.Now())
	// Application bypasses while the fetch is in flight.
	if buf.TryConsume(1) {
		t.Fatal("in-flight entry consumed")
	}
	eng.Run() // fetch completes, Commit finds nothing
	if buf.Used() != 0 {
		t.Fatalf("space leaked after bypass: %d", buf.Used())
	}
	// Buffer is fully reusable.
	if !buf.Reserve(2, 100) {
		t.Fatal("full capacity not reusable")
	}
}
