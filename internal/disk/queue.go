package disk

import "sort"

// elevator implements the SCAN (elevator) disk-arm scheduling discipline
// from Table II: pending requests are served in cylinder order, continuing
// in the current sweep direction and reversing at the last request.
type elevator struct {
	pending []*Request
	up      bool // current sweep direction: toward higher cylinders
}

func newElevator() *elevator { return &elevator{up: true} }

// Len returns the number of queued requests.
func (q *elevator) Len() int { return len(q.pending) }

// Push inserts a request keeping the slice cylinder-sorted.
func (q *elevator) Push(r *Request) {
	i := sort.Search(len(q.pending), func(i int) bool { //sddsvet:ignore hotalloc -- sort.Search predicate does not escape: no per-call heap allocation
		return q.pending[i].cylinder >= r.cylinder
	})
	q.pending = append(q.pending, nil)
	copy(q.pending[i+1:], q.pending[i:])
	q.pending[i] = r
}

// Pop removes and returns the next request to serve given the head position,
// or nil when empty. It continues the current sweep, reversing direction
// when the sweep is exhausted.
func (q *elevator) Pop(headCyl int64) *Request {
	n := len(q.pending)
	if n == 0 {
		return nil
	}
	// Index of first request at or above the head.
	i := sort.Search(n, func(i int) bool { return q.pending[i].cylinder >= headCyl }) //sddsvet:ignore hotalloc -- sort.Search predicate does not escape: no per-call heap allocation
	var pick int
	if q.up {
		if i < n {
			pick = i
		} else {
			q.up = false
			pick = n - 1
		}
	} else {
		if i > 0 {
			pick = i - 1
			// A request exactly at the head belongs to the downward
			// sweep too.
			if i < n && q.pending[i].cylinder == headCyl {
				pick = i
			}
		} else {
			q.up = true
			pick = 0
		}
	}
	r := q.pending[pick]
	q.pending = append(q.pending[:pick], q.pending[pick+1:]...)
	return r
}
