package sched

import (
	"fmt"

	"sdds/internal/core"
	"sdds/internal/pool"
	"sdds/internal/sim"
)

// AccessInfo resolves an access id to the byte range it covers — the
// agent's view of the scheduling-table payload.
type AccessInfo struct {
	File   int
	Offset int64
	Length int64
	// WriterSlot is the producer's slot (-1 if the data pre-exists).
	WriterSlot int
}

// Fetcher issues an asynchronous read on behalf of an agent (implemented by
// the cluster executor on top of the MPI-IO middleware). done's ok reports
// whether the data arrived; under fault injection a fetch that exhausted
// every retry completes with ok=false and the agent aborts the prefetch.
type Fetcher interface {
	Fetch(file int, offset, length int64, done func(now sim.Time, ok bool)) error
}

// LocalClock exposes the processes' progress: MinSlot is the minimum local
// slot any process has completed — the "local time" the paper's scheduler
// threads exchange before fetching cross-process data.
type LocalClock interface {
	MinSlot() int
}

// Agent is one process's scheduler thread. It walks the process's
// scheduling table (only the entries moved earlier than their original
// points) and issues prefetches into the shared global buffer.
type Agent struct {
	proc int
	// table is the schedule's own table, read in place and never written:
	// every run of one compile shares it.
	table   []core.Entry
	resolve func(accessID int) (AccessInfo, bool)
	fetcher Fetcher
	buf     *GlobalBuffer
	clock   LocalClock

	next      int // first table index not yet issued or skipped
	pending   int // moved entries at or after next
	localSlot int

	issued, skippedFull, deferredWriter int64
	fetchAborts                         int64

	// fetches recycles the per-prefetch completion records.
	fetches *pool.Pool[fetch]
}

// fetch is one prefetch in flight; doneFn is its completion, bound once
// when the pool allocates the record, so issuing a prefetch allocates
// nothing. The record returns to the pool when the completion fires.
type fetch struct {
	a      *Agent
	id     int
	doneFn func(now sim.Time, ok bool)
}

// NewAgent builds the agent for proc over its full scheduling table, which
// must be in slot order. The agent reads the table in place, never writes
// it, and acts only on entries scheduled earlier than their original point
// (§III: "the scheduler only performs data accesses scheduled at much
// earlier iterations than their original points").
func NewAgent(proc int, table []core.Entry, resolve func(int) (AccessInfo, bool), fetcher Fetcher, buf *GlobalBuffer, clock LocalClock) (*Agent, error) {
	if resolve == nil || fetcher == nil || buf == nil || clock == nil {
		return nil, fmt.Errorf("sched: agent %d: nil dependency", proc)
	}
	pending := 0
	for i, e := range table {
		if i > 0 && e.Slot < table[i-1].Slot {
			return nil, fmt.Errorf("sched: agent %d: table entry %d at slot %d follows slot %d", proc, i, e.Slot, table[i-1].Slot)
		}
		if moved(e) {
			pending++
		}
	}
	a := &Agent{
		proc:    proc,
		table:   table,
		pending: pending,
		resolve: resolve,
		fetcher: fetcher,
		buf:     buf,
		clock:   clock,
	}
	a.fetches = pool.New(a.newFetch)
	return a, nil
}

// moved reports whether e is scheduled before its original point, the only
// entries an agent prefetches.
func moved(e core.Entry) bool { return e.Slot < e.Orig }

// newFetch grows the fetch pool.
func (a *Agent) newFetch() *fetch {
	f := &fetch{a: a} //sddsvet:ignore hotalloc -- pool growth: one record per concurrently in-flight prefetch
	f.doneFn = f.done
	return f
}

// done completes a prefetch. A failed fetch (every bounded retry
// exhausted) releases the reservation and wakes any waiting reader as a
// miss — it falls back to an on-demand read. Producer local-time ordering
// is untouched: the entry simply behaves as if it was never prefetched. A
// Commit that finds the entry gone means the read bypassed the prefetch
// and TryConsume already released the space.
func (f *fetch) done(_ sim.Time, ok bool) {
	a, id := f.a, f.id
	a.fetches.Put(f)
	if !ok {
		a.fetchAborts++
		a.buf.Abort(id)
		return
	}
	a.buf.Commit(id)
}

// Stats returns prefetch counters: issued fetches, skips due to a full
// buffer, and deferrals waiting for a producer.
func (a *Agent) Stats() (issued, skippedFull, deferredWriter int64) {
	return a.issued, a.skippedFull, a.deferredWriter
}

// FetchAborts returns how many issued prefetches completed unsuccessfully
// (injected faults, retries exhausted) and released their reservation.
// Always zero without fault injection.
func (a *Agent) FetchAborts() int64 { return a.fetchAborts }

// PendingEntries returns how many moved table entries have not been issued
// or dropped yet.
func (a *Agent) PendingEntries() int { return a.pending }

// AdvanceTo records that the agent's process reached local slot `slot` and
// pumps the table. It is also the hook other agents' progress re-triggers
// (a producer advancing may unblock a deferred fetch).
func (a *Agent) AdvanceTo(slot int, now sim.Time) {
	if slot > a.localSlot {
		a.localSlot = slot
	}
	a.Pump(now)
}

// Pump issues every table entry that is due, in order, stopping at the
// first entry that must wait — for its producer's local time or for buffer
// space. Stopping (rather than skipping) preserves the table order and
// implements the paper's "stop fetching when the buffer is full".
//
// Dueness follows the *global* minimum local time rather than the agent's
// own process clock: the scheduler threads synchronize with each other
// (§III), so every process's accesses scheduled at slot s are issued
// together when the slowest process reaches s. This is what converts
// slot-space grouping into temporal grouping at the disks — individual
// process clocks drift apart, and pacing each agent by its own clock would
// smear a scheduled burst over the drift window.
func (a *Agent) Pump(now sim.Time) {
	// A small lead over the global clock keeps accesses with short
	// advances fetchable: with zero lead, the slowest process reaches slot
	// s only after faster owners have already passed nearby original
	// points and the entries would all be dropped as stale.
	const dueLead = 2
	due := a.clock.MinSlot() + dueLead
	for a.next < len(a.table) {
		e := a.table[a.next]
		if !moved(e) {
			a.next++
			continue
		}
		if e.Slot > due {
			return // not due yet
		}
		info, ok := a.resolve(e.AccessID)
		if !ok {
			a.retire() // unknown access
			continue
		}
		// The prefetch is pointless once the process has passed the
		// original point (the application already read it synchronously).
		if a.localSlot >= e.Orig {
			a.retire()
			continue
		}
		// Producer check: fetch only after every process has passed the
		// writer's slot, ensuring the data on disk is final.
		if info.WriterSlot >= 0 && a.clock.MinSlot() <= info.WriterSlot {
			a.deferredWriter++
			return // retry on the next AdvanceTo from any process
		}
		if !a.buf.Reserve(e.AccessID, info.Length) {
			a.skippedFull++
			return // buffer full: stop fetching until space frees
		}
		f := a.fetches.Get()
		f.id = e.AccessID
		if err := a.fetcher.Fetch(info.File, info.Offset, info.Length, f.doneFn); err != nil {
			a.fetches.Put(f)
			a.buf.Abort(e.AccessID)
			a.retire()
			continue
		}
		a.issued++
		a.retire()
	}
}

// retire moves past the moved entry at next, issued or dropped.
func (a *Agent) retire() {
	a.next++
	a.pending--
}
