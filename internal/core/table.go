package core

import (
	"cmp"
	"fmt"
	"slices"

	"sdds/internal/stripe"
)

// Entry is one row of a process's scheduling table: at slot Slot, issue the
// access identified by AccessID (whose original program point was Orig).
// The access's signature stays on the Access.
type Entry struct {
	Slot     int
	AccessID int
	Orig     int
	Length   int
}

// Schedule is the output of the scheduler: the scheduling point of every
// access plus the per-process tables the runtime scheduler loads. Access
// IDs and process ids index its slices.
type Schedule struct {
	params Params
	access []*Access // access ID → access; nil for an ID with no access
	points []int     // access ID → slot
	n      int       // scheduled accesses
	tables [][]Entry // proc → entries sorted by (slot, access ID)
}

// newSchedule returns an empty schedule for access IDs below ids and
// process ids below procs.
func newSchedule(p Params, ids, procs int) *Schedule {
	return &Schedule{
		params: p,
		access: make([]*Access, ids),
		points: make([]int, ids),
		tables: make([][]Entry, procs),
	}
}

func (s *Schedule) assign(a *Access, point int) {
	s.access[a.ID] = a
	s.points[a.ID] = point
}

// finalize builds the per-process tables from the assigned points: each
// process's entries in (slot, access ID) order, all in one backing array.
func (s *Schedule) finalize() {
	counts := make([]int, len(s.tables))
	s.n = 0
	for _, a := range s.access {
		if a != nil {
			counts[a.Proc]++
			s.n++
		}
	}
	backing := make([]Entry, 0, s.n)
	for p, c := range counts {
		if c > 0 {
			s.tables[p] = backing[len(backing) : len(backing) : len(backing)+c]
			backing = backing[:len(backing)+c]
		}
	}
	for id, a := range s.access {
		if a == nil {
			continue
		}
		s.tables[a.Proc] = append(s.tables[a.Proc], Entry{
			Slot:     s.points[id],
			AccessID: id,
			Orig:     a.Orig,
			Length:   a.Length,
		})
	}
	for _, t := range s.tables {
		slices.SortStableFunc(t, func(x, y Entry) int { return cmp.Compare(x.Slot, y.Slot) })
	}
}

// PointOf returns the scheduling point of an access, and whether the access
// was scheduled.
func (s *Schedule) PointOf(accessID int) (int, bool) {
	if accessID < 0 || accessID >= len(s.access) || s.access[accessID] == nil {
		return 0, false
	}
	return s.points[accessID], true
}

// Len returns the number of scheduled accesses.
func (s *Schedule) Len() int { return s.n }

// Procs returns the process ids that have table entries, ascending.
func (s *Schedule) Procs() []int {
	var out []int
	for p, t := range s.tables {
		if len(t) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// Table returns process proc's scheduling table sorted by slot. The caller
// must not modify the returned slice.
func (s *Schedule) Table(proc int) []Entry {
	if proc < 0 || proc >= len(s.tables) {
		return nil
	}
	return s.tables[proc]
}

// NumMovedEarlier counts the entries of proc whose scheduling point
// precedes their original point — exactly the accesses the runtime
// scheduler prefetches ("the scheduler only performs data accesses
// scheduled at much earlier iterations than their original points", §III).
func (s *Schedule) NumMovedEarlier(proc int) int {
	n := 0
	for _, e := range s.Table(proc) {
		if e.Slot < e.Orig {
			n++
		}
	}
	return n
}

// spanOf returns the slots [lo, hi) that access id occupies at its point.
func (s *Schedule) spanOf(id int) (lo, hi int) {
	lo = s.points[id]
	return lo, lo + min(s.access[id].Length, s.params.NumSlots-lo)
}

// ValidationReport summarizes the soft properties of a schedule.
type ValidationReport struct {
	// MaxPerNode is the worst per-I/O-node concurrency observed in any slot
	// (what θ bounds; the θ constraint is best-effort, falling back to
	// minimum-excess placement when unsatisfiable, so callers assert it).
	MaxPerNode int
	// ProcOverlaps counts (process, slot) pairs carrying more than one
	// access. Overlap only happens when a process's accesses are so
	// constrained that no conflict-free slot exists (e.g. two unavoidable
	// reads in one iteration); it is 0 for schedulable inputs.
	ProcOverlaps int
}

// Validate checks the hard invariant — every access is scheduled inside its
// slack — and reports the soft properties (per-node concurrency, forced
// same-process overlaps). Accesses are checked in ascending ID order, so
// with several out-of-slack accesses the error names the same one every
// time.
func (s *Schedule) Validate() (ValidationReport, error) {
	var rep ValidationReport
	type ps struct{ proc, slot int }
	seen := make(map[ps]bool)
	counts := make(map[int]map[int]int) // slot → node → count
	var nodes []int                     // reused per access: ascending node list
	for _, as := range s.Assignments() {
		point := as.Point
		a := s.access[as.ID]
		if err := a.checkPoint(point); err != nil {
			return rep, err
		}
		nodes = a.Sig.AppendNodes(nodes[:0])
		for k := 0; k < a.Length; k++ {
			slot := point + k
			if slot >= s.params.NumSlots {
				break
			}
			key := ps{a.Proc, slot}
			if _, dup := seen[key]; dup {
				rep.ProcOverlaps++
			}
			seen[key] = true
			m := counts[slot]
			if m == nil {
				m = make(map[int]int)
				counts[slot] = m
			}
			for _, n := range nodes {
				m[n]++
				if m[n] > rep.MaxPerNode {
					rep.MaxPerNode = m[n]
				}
			}
		}
	}
	return rep, nil
}

// NodeActivations sums, over all slots, the number of distinct I/O nodes
// active in the slot. Packing accesses that share nodes into common slots
// lowers this total — the quantity the scheduling algorithm implicitly
// minimizes to lengthen idle periods.
func (s *Schedule) NodeActivations() int {
	active := make([]stripe.Signature, s.params.NumSlots)
	for id, a := range s.access {
		if a == nil {
			continue
		}
		lo, hi := s.spanOf(id)
		for slot := lo; slot < hi; slot++ {
			if active[slot].Len() == 0 {
				active[slot] = stripe.NewSignature(s.params.NumNodes)
			}
			active[slot].OrInPlace(a.Sig)
		}
	}
	total := 0
	for _, g := range active {
		total += g.Count()
	}
	return total
}

// ActiveSlotCount returns the number of slots with at least one scheduled
// access — fewer active slots means accesses were packed more tightly.
func (s *Schedule) ActiveSlotCount() int {
	active := make([]bool, s.params.NumSlots)
	total := 0
	for id, a := range s.access {
		if a == nil {
			continue
		}
		lo, hi := s.spanOf(id)
		for slot := lo; slot < hi; slot++ {
			if !active[slot] {
				active[slot] = true
				total++
			}
		}
	}
	return total
}

// Assignment couples an access ID with its scheduling point — the minimal
// serializable form of one scheduling decision. The full Schedule (tables,
// access windows) is reconstructed from assignments plus the accesses
// themselves, which are a pure function of (program, options).
type Assignment struct {
	ID    int `json:"id"`
	Point int `json:"point"`
}

// Assignments returns every (access ID, point) pair sorted by access ID:
// the canonical order-independent rendering of the schedule used by the
// compile-artifact store.
func (s *Schedule) Assignments() []Assignment {
	out := make([]Assignment, 0, s.n)
	for id, a := range s.access {
		if a != nil {
			out = append(out, Assignment{ID: id, Point: s.points[id]})
		}
	}
	return out
}

// ScheduledAccess pairs a (possibly re-anchored) access with its scheduling
// point when rebuilding a schedule from serialized assignments.
type ScheduledAccess struct {
	Access *Access
	Point  int
}

// NewScheduleFromAssignments rebuilds a schedule from serialized
// assignments. Each element must carry the access re-anchored into the
// same slot space the points are expressed in (full resolution after
// Rescale), and each point must pass Validate's slack check. The rebuild
// uses the same assign+finalize path as the scheduler itself, so a rebuilt
// schedule is bit-identical to the original — the property the artifact
// round-trip pin asserts.
func NewScheduleFromAssignments(p Params, assigns []ScheduledAccess) (*Schedule, error) {
	ids, procs := 0, 0
	for _, sa := range assigns {
		a := sa.Access
		switch {
		case a == nil:
			return nil, fmt.Errorf("core: assignment with nil access")
		case a.ID < 0:
			return nil, fmt.Errorf("core: access %d: negative ID", a.ID)
		case a.Proc < 0:
			return nil, fmt.Errorf("core: access %d: negative proc %d", a.ID, a.Proc)
		case sa.Point < 0 || sa.Point >= p.NumSlots:
			return nil, fmt.Errorf("core: access %d: point %d outside %d slots", a.ID, sa.Point, p.NumSlots)
		}
		if err := a.checkPoint(sa.Point); err != nil {
			return nil, err
		}
		ids, procs = max(ids, a.ID+1), max(procs, a.Proc+1)
	}
	s := newSchedule(p, ids, procs)
	for _, sa := range assigns {
		if s.access[sa.Access.ID] != nil {
			return nil, fmt.Errorf("core: duplicate assignment for access %d", sa.Access.ID)
		}
		s.assign(sa.Access, sa.Point)
	}
	s.finalize()
	return s, nil
}

// Rescale maps a schedule computed over coalesced slots (d iterations per
// unit, §IV-A) back to full-resolution slots: each scheduling point p
// becomes p·d, clamped into the access's full-resolution slack window
// supplied by slackOf. The returned schedule's tables and points are in
// full-resolution slots over numSlots total.
func (s *Schedule) Rescale(d, numSlots int, slackOf func(accessID int) (begin, end int)) *Schedule {
	if d <= 1 {
		return s
	}
	params := s.params
	params.NumSlots = numSlots
	out := newSchedule(params, len(s.access), len(s.tables))
	// Re-anchor each access to full resolution so Validate and the tables
	// reason in the same slot space.
	anchored := make([]Access, 0, s.n)
	for id, a := range s.access {
		if a == nil {
			continue
		}
		begin, end := slackOf(id)
		fa := *a
		fa.Begin = begin
		fa.End = end
		fa.Orig = end
		anchored = append(anchored, fa)
		out.assign(&anchored[len(anchored)-1], min(max(s.points[id]*d, begin), end))
	}
	out.finalize()
	return out
}
