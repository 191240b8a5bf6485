package ionode

import "sdds/internal/cache"

// fetchTable indexes the unit fetches in flight by cache key, at most one
// per key. It is an open-addressed table of the fetches themselves: probes
// run linearly from the key's home cell, a removal shifts the rest of its
// probe run back instead of leaving a tombstone, and the table doubles
// whenever an add would fill more than half of it. A node's table thus
// stops allocating once it has grown to the most fetches a run keeps in
// flight, and keeps that size across Reset. The zero value is empty.
type fetchTable struct {
	cells []*unitFetch
	n     int
}

// minFetchCells is the table's first size.
const minFetchCells = 16

// get returns the fetch in flight for key, or nil.
func (t *fetchTable) get(key cache.Key) *unitFetch {
	if t.n == 0 {
		return nil
	}
	return t.cells[t.find(key)]
}

// add indexes f, whose key must not be in flight already.
func (t *fetchTable) add(f *unitFetch) {
	if 2*(t.n+1) > len(t.cells) {
		t.grow()
	}
	t.cells[t.find(f.key)] = f
	t.n++
}

// remove drops key's fetch, which must be in flight.
func (t *fetchTable) remove(key cache.Key) {
	mask := len(t.cells) - 1
	hole := t.find(key)
	for next := (hole + 1) & mask; t.cells[next] != nil; next = (next + 1) & mask {
		// An entry may fill the hole unless its home lies after the hole
		// on its probe run.
		if home := int(t.cells[next].key.Hash()) & mask; (next-home)&mask >= (next-hole)&mask {
			t.cells[hole] = t.cells[next]
			hole = next
		}
	}
	t.cells[hole] = nil
	t.n--
}

// reset empties the table, keeping its cells.
func (t *fetchTable) reset() {
	clear(t.cells)
	t.n = 0
}

// find returns the cell holding key's fetch, or the empty cell where it
// would go. The table must have an empty cell.
func (t *fetchTable) find(key cache.Key) int {
	mask := len(t.cells) - 1
	cell := int(key.Hash()) & mask
	for t.cells[cell] != nil && t.cells[cell].key != key {
		cell = (cell + 1) & mask
	}
	return cell
}

// grow doubles the table and re-indexes every fetch in it.
func (t *fetchTable) grow() {
	old := t.cells
	t.cells = make([]*unitFetch, max(minFetchCells, 2*len(old))) //sddsvet:ignore hotalloc -- table growth: doubles up to the most fetches a node keeps in flight, then kept across Reset
	for _, f := range old {
		if f != nil {
			t.cells[t.find(f.key)] = f
		}
	}
}
