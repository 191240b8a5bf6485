package sched

import (
	"testing"

	"sdds/internal/core"
	"sdds/internal/sim"
)

// engineFetcher completes every fetch after a fixed delay on the engine,
// passing done through the allocation-free ScheduleArg path.
type engineFetcher struct{ eng *sim.Engine }

func completeFetch(now sim.Time, arg any) { arg.(func(sim.Time, bool))(now, true) }

func (f engineFetcher) Fetch(_ int, _, _ int64, done func(sim.Time, bool)) error {
	f.eng.ScheduleArg(10, "fake.fetch", completeFetch, done)
	return nil
}

// TestPrefetchAllocatesNothing pins the pooled fetch records: once warm,
// issuing a prefetch, completing it into the buffer and consuming it
// allocates nothing.
func TestPrefetchAllocatesNothing(t *testing.T) {
	const n = 4000
	eng := sim.NewEngine(1)
	buf := MustNewGlobalBuffer(1 << 20)
	table := make([]core.Entry, n)
	for i := range table {
		table[i] = mkEntry(i, i, i+50)
	}
	resolve := func(id int) (AccessInfo, bool) {
		return AccessInfo{File: 0, Offset: int64(id) << 12, Length: 4096, WriterSlot: -1}, true
	}
	clock := &fakeClock{}
	a, err := NewAgent(0, table, resolve, engineFetcher{eng}, buf, clock)
	if err != nil {
		t.Fatal(err)
	}
	op := func() {
		clock.min++
		a.Pump(eng.Now())
		eng.Run()
		if !buf.TryConsume(clock.min) {
			t.Fatalf("access %d not resident", clock.min)
		}
	}
	for i := 0; i < 1000; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(2000, op); allocs != 0 {
		t.Fatalf("a prefetch allocates %v objects, want 0", allocs)
	}
	if issued, _, _ := a.Stats(); issued < 3000 {
		t.Fatalf("%d prefetches issued", issued)
	}
}
