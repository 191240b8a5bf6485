package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"sdds/internal/stripe"
)

// Scheduler runs the data access scheduling algorithms of §IV-B. One
// Scheduler instance handles one scheduling problem; it is not safe for
// concurrent use.
type Scheduler struct {
	params Params
	// reach is δ clipped to the slot count: how far a window reaches past
	// a span. Slots further out do not exist, so clipping changes nothing.
	reach int
	// sigma[k] = Weight(k, δ), the σ weight of a slot k slots outside the
	// span, for k up to reach.
	sigma []float64
	// inverse[d] is the inverse distance 1/d (2 for d = 0) exactly as
	// Signature.InverseDistance computes it, for every distance 0..2n.
	inverse []float64

	// group holds G_t, each slot's group active signature, as words
	// 64-bit words per slot: bit n of slot t is group[t·words + n/64]>>(n%64).
	group  []uint64
	words  int
	counts []int32  // slot·NumNodes + node → scheduled access count (θ)
	busy   [][]bool // proc → per-slot occupancy, made on first commit

	// Per-access scratch, sized by Schedule for the widest window so that
	// placing an access allocates nothing.
	nodes []int        // the access's I/O nodes, ascending
	mask  []uint64     // the access's signature, in the words of group
	inv   []float64    // window slot → inverse distance to its group
	sum1  []uint64     // prefix sums of the fixed-point inverse distances
	sum2  []uint64     // prefix sums of sum1
	spans []spanCounts // prefix sums of per-slot occupancy and θ excess
	ties  []int        // the slots sharing the best R_t, ascending
	win   window
}

// window is the slot range one access's placement reads.
type window struct {
	// lo..hi holds every slot some candidate's R_t reads: the candidate
	// spans widened by δ on both sides. Slots outside the slot space read
	// as zero, so prefix sums over the window need no clipping.
	lo, hi int
	// first..spanHi holds every slot some candidate's span covers.
	first, spanHi int
	// length is the access length clipped to the slot count.
	length int
	// prune reports whether estimates may skip exact sums; margin is the
	// estimate gap within which an exact sum is still needed.
	prune  bool
	margin uint64
}

// spanCounts sums per-slot occupancy and θ pressure over a prefix of the
// candidate spans: slots the process already uses, and, over the access's
// nodes, how many would exceed θ and by how much in total.
type spanCounts struct{ busy, over, excess int }

func (c spanCounts) sub(o spanCounts) spanCounts {
	return spanCounts{c.busy - o.busy, c.over - o.over, c.excess - o.excess}
}

// averageExcess is E_t of §IV-B3: the accesses beyond θ per
// over-subscribed node, averaged over the span. Every term is an integer,
// so summing in any order gives the same float.
func (c spanCounts) averageExcess() float64 {
	if c.over == 0 {
		return 0
	}
	return float64(c.excess) / float64(c.over)
}

// NewScheduler validates params and returns a scheduler.
func NewScheduler(p Params) (*Scheduler, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{
		params: p,
		reach:  min(p.Delta, p.NumSlots),
		words:  (p.NumNodes + 63) / 64,
	}
	s.sigma = make([]float64, s.reach+1)
	for k := range s.sigma {
		s.sigma[k] = Weight(k, p.Delta)
	}
	s.inverse = make([]float64, 2*p.NumNodes+1)
	s.inverse[0] = 2
	for d := 1; d < len(s.inverse); d++ {
		s.inverse[d] = 1 / float64(d)
	}
	s.group = make([]uint64, p.NumSlots*s.words)
	s.mask = make([]uint64, s.words)
	if p.Theta > 0 {
		s.counts = make([]int32, p.NumSlots*p.NumNodes)
	}
	return s, nil
}

// Schedule assigns a scheduling point to every access and returns the
// resulting schedule. The input slice is not modified; accesses are
// processed in the configured order (shortest slack first by default).
// Access IDs must be unique; they index the schedule, so dense IDs keep
// it small.
func (s *Scheduler) Schedule(accesses []*Access) (*Schedule, error) {
	ids, procs, widest := 0, len(s.busy), 0
	for _, a := range accesses {
		if err := a.Validate(s.params.NumSlots, s.params.NumNodes); err != nil {
			return nil, err
		}
		ids, procs = max(ids, a.ID+1), max(procs, a.Proc+1)
		w := s.window(a)
		widest = max(widest, w.hi-w.lo+1)
	}
	sched := newSchedule(s.params, ids, procs)
	for _, a := range accesses {
		if sched.access[a.ID] != nil {
			return nil, fmt.Errorf("core: access %d: duplicate ID", a.ID)
		}
		sched.access[a.ID] = a
	}
	order := slices.Clone(accesses)
	switch s.params.Order {
	case OrderSlack:
		slices.SortStableFunc(order, func(x, y *Access) int {
			return cmp.Or(cmp.Compare(x.SlackLen(), y.SlackLen()), cmp.Compare(x.ID, y.ID))
		})
	case OrderLongestSlack:
		slices.SortStableFunc(order, func(x, y *Access) int {
			return cmp.Or(cmp.Compare(y.SlackLen(), x.SlackLen()), cmp.Compare(x.ID, y.ID))
		})
	case OrderInput:
		// keep as-is
	default:
		return nil, fmt.Errorf("core: unknown order %d", s.params.Order)
	}

	s.reserve(widest, procs)
	for _, a := range order {
		s.setAccess(a)
		point := s.place(a)
		s.commit(a, point)
		sched.assign(a, point)
	}
	sched.finalize()
	return sched, nil
}

// reserve sizes the per-access scratch for windows of up to widest slots
// and the occupancy table for procs processes.
func (s *Scheduler) reserve(widest, procs int) {
	if cap(s.inv) < widest {
		s.inv = make([]float64, widest)
		s.sum1 = make([]uint64, widest+1)
		s.sum2 = make([]uint64, widest+2)
		s.spans = make([]spanCounts, widest+1)
		s.ties = make([]int, 0, widest)
	}
	for len(s.busy) < procs {
		s.busy = append(s.busy, nil)
	}
}

// window returns the slot ranges placing a reads. Every candidate start
// t ∈ [a.Begin, a.LatestStart()] lies in both ranges.
func (s *Scheduler) window(a *Access) window {
	n := s.params.NumSlots
	first, last := a.Begin, a.LatestStart()
	length := min(a.Length, n)
	return window{
		lo:     first - s.reach,
		hi:     last + length - 1 + s.reach,
		first:  first,
		spanHi: min(last+length-1, n-1),
		length: length,
	}
}

// setAccess lists the I/O nodes of the access about to be placed and
// spreads them into mask, so the θ checks, the distances and the commit
// read them without allocating.
func (s *Scheduler) setAccess(a *Access) {
	s.nodes = a.Sig.AppendNodes(s.nodes[:0])
	clear(s.mask)
	for _, n := range s.nodes {
		s.mask[n/64] |= 1 << (n % 64)
	}
}

// distance is Signature.Distance between the access being placed and
// the group of slot: n − similarity + difference.
func (s *Scheduler) distance(slot int) int {
	g := s.group[slot*s.words:]
	d := s.params.NumNodes
	for i, m := range s.mask {
		d += bits.OnesCount64(m^g[i]) - bits.OnesCount64(m&g[i])
	}
	return d
}

// place selects the scheduling point for one access given everything
// committed so far.
//
// Among the available starts, it takes the least E_t, then the greatest
// R_t, then the earliest slot. Without θ every E_t is 0. With θ, a start
// that keeps every node the access touches within θ over its span has
// E_t = 0 and any other has E_t ≥ 1, so this is §IV-B3's rule: the
// highest-reuse start that satisfies θ, else the start of minimum E_t,
// with ties by reuse.
//
// The first pass finds the least E_t and the best O(1) estimate of R_t
// among the starts that have it. The second sums R_t exactly only for
// those starts whose estimate is within the proven error margin of the
// best; every start of maximum R_t is among them (DESIGN.md §6), so the
// result equals summing every start.
func (s *Scheduler) place(a *Access) int {
	s.fill(a)
	first, last := a.Begin, a.LatestStart()
	prune := s.win.prune
	minE, top, found := math.Inf(1), uint64(0), false
	for t := first; t <= last; t++ {
		c := s.span(t)
		if c.busy != 0 {
			continue // Fig. 11 line 8: the process already uses a slot of the span
		}
		e := c.averageExcess()
		if e > minE {
			continue
		}
		if e < minE {
			minE, top = e, 0
		}
		if prune {
			top = max(top, s.estimate(t))
		}
		found = true
	}
	if !found {
		// Every start violates per-process availability (extremely dense
		// schedule): fall back to the slack start, best effort.
		return a.Begin
	}

	s.ties = s.ties[:0]
	best := -1.0
	for t := first; t <= last; t++ {
		c := s.span(t)
		if c.busy != 0 || c.averageExcess() != minE || prune && s.estimate(t)+s.win.margin < top {
			continue
		}
		switch r := s.reuseFactor(t); {
		case r > best:
			best = r
			s.ties = append(s.ties[:0], t)
		case r == best:
			s.ties = append(s.ties, t)
		}
	}
	if s.params.Theta == 0 && s.params.RandomTies != nil && len(s.ties) > 1 {
		return s.ties[s.params.RandomTies(len(s.ties))]
	}
	return s.ties[0]
}

// span returns the occupancy and θ counts over the span of a start at t.
func (s *Scheduler) span(t int) spanCounts {
	w := &s.win
	return s.spans[min(t+w.length, w.spanHi+1)-w.first].sub(s.spans[t-w.first])
}

// fill prepares the scratch for placing a: the window, the inverse
// distance from a to every group in it (one popcount per slot instead of
// one per slot per candidate), their fixed-point prefix sums for the R_t
// estimates, and prefix counts of occupancy and θ pressure over the
// candidate spans.
func (s *Scheduler) fill(a *Access) {
	w := s.window(a)
	n, delta := s.params.NumSlots, s.params.Delta
	inv := s.inv[:w.hi-w.lo+1]
	clear(inv)
	for slot := max(w.lo, 0); slot <= min(w.hi, n-1); slot++ {
		inv[slot-w.lo] = s.inverse[s.distance(slot)]
	}

	// terms bounds the slots one R_t sums. Estimates need δ within the
	// slot space, so the window's zero padding covers every tail, and
	// (δ+1)·terms < 2^41, which leaves at least 21 fraction bits; other
	// windows sum every start exactly.
	terms := min(w.length+2*s.reach, n)
	w.prune = delta == s.reach && (delta+1)*terms < 1<<41
	if w.prune {
		// K fraction bits keep every weighted estimate, at most
		// (δ+1)·terms·2^(K+1), below 2^63.
		k := min(52, 62-bits.Len64(uint64((delta+1)*terms)))
		scale := math.Ldexp(1, k)
		sum1, sum2 := s.sum1[:len(inv)+1], s.sum2[:len(inv)+2]
		sum1[0], sum2[0] = 0, 0
		for i, v := range inv {
			sum1[i+1] = sum1[i] + uint64(int64(v*scale))
			sum2[i+1] = sum2[i] + sum1[i]
		}
		sum2[len(inv)+1] = sum2[len(inv)] + sum1[len(inv)]
		w.margin = estimateMargin(terms, delta, k, s.params.NoWeights)
	}

	sp := s.spans[:w.spanHi-w.first+2]
	sp[0] = spanCounts{}
	busy := s.busy[a.Proc]
	theta := s.params.Theta
	for slot := w.first; slot <= w.spanHi; slot++ {
		c := sp[slot-w.first]
		if busy != nil && busy[slot] {
			c.busy++
		}
		if s.counts != nil {
			row := s.counts[slot*s.params.NumNodes:]
			for _, node := range s.nodes {
				if m := int(row[node]) + 1; m > theta {
					c.over++
					c.excess += m - theta
				}
			}
		}
		sp[slot-w.first+1] = c
	}
	s.win = w
}

// estimateMargin bounds, in estimate units, how far apart the estimates
// of two starts of equal R_t can be: twice the error bound B of one
// estimate, scaled by (δ+1)·2^K (2^K without weights), plus slack for
// rounding this computation itself. See DESIGN.md §6 for B.
func estimateMargin(terms, delta, k int, noWeights bool) uint64 {
	m := float64(terms)
	bound := m*math.Ldexp(1, -k) + 3*m*(m+2)*math.Ldexp(1, -53)
	unit := float64(delta + 1)
	if noWeights {
		unit = 1
	}
	return uint64(math.Ceil(2*bound*unit*math.Ldexp(1, k)*(1+1e-9))) + 2
}

// estimate returns R_t over the window's fixed-point inverse distances,
// scaled by (δ+1)·2^K (2^K without weights), in O(1). With A the prefix
// sums of q and AA those of A, the triangular σ tails are
//
//	Σ_{k=1..δ} (δ+1−k)·q[τ−k]   = δ·A[τ] − (AA[τ] − AA[τ−δ])
//	Σ_{k=1..δ} (δ+1−k)·q[e+k−1] = AA[e+δ+1] − AA[e+1] − δ·A[e]
//
// with τ the start's window index and e the index just past its span.
// The arithmetic wraps modulo 2^64, which leaves the result exact
// because the result itself is below 2^63.
func (s *Scheduler) estimate(t int) uint64 {
	d := s.params.Delta
	tau := t - s.win.lo
	e := tau + s.win.length
	A, AA := s.sum1, s.sum2
	if s.params.NoWeights {
		return A[e+d] - A[tau-d]
	}
	ud := uint64(d)
	left := ud*A[tau] - (AA[tau] - AA[tau-d])
	right := AA[e+d+1] - AA[e+1] - ud*A[e]
	return left + (ud+1)*(A[e]-A[tau]) + right
}

// reuseFactor computes R_t (Eq. 2 extended per §IV-B2): unit sub-accesses
// of a starting at t occupy [t, t+len−1] with weight 1; slots up to δ
// before/after the span contribute with linearly decaying weight σ. The
// sum runs in slot order over the left tail, the span and the right tail,
// so equal windows give bit-equal sums.
func (s *Scheduler) reuseFactor(t int) float64 {
	w := &s.win
	lo := max(t-s.reach, 0)
	spanEnd := t + w.length - 1
	hi := min(spanEnd+s.reach, s.params.NumSlots-1)
	inv := s.inv[lo-w.lo : hi-w.lo+1]
	var r float64
	if s.params.NoWeights {
		for _, v := range inv {
			r += v
		}
		return r
	}
	slot := lo
	for ; slot < t; slot++ {
		r += s.sigma[t-slot] * inv[slot-lo]
	}
	for ; slot <= min(spanEnd, hi); slot++ {
		r += inv[slot-lo]
	}
	for ; slot <= hi; slot++ {
		r += s.sigma[slot-spanEnd] * inv[slot-lo]
	}
	return r
}

// commit records a's placement at slot point: per-process occupancy, group
// active signatures, and θ counters.
func (s *Scheduler) commit(a *Access, point int) {
	busy := s.busy[a.Proc]
	if busy == nil {
		busy = make([]bool, s.params.NumSlots)
		s.busy[a.Proc] = busy
	}
	for slot := point; slot < point+min(a.Length, s.params.NumSlots-point); slot++ {
		busy[slot] = true
		g := s.group[slot*s.words:]
		for i, m := range s.mask {
			g[i] |= m
		}
		if s.counts != nil {
			row := s.counts[slot*s.params.NumNodes:]
			for _, n := range s.nodes {
				row[n]++
			}
		}
	}
}

// GroupSignature exposes the committed group active signature of a slot
// (diagnostics and tests).
func (s *Scheduler) GroupSignature(slot int) stripe.Signature {
	g := stripe.NewSignature(s.params.NumNodes)
	if slot < 0 || slot >= s.params.NumSlots {
		return g
	}
	for n := 0; n < s.params.NumNodes; n++ {
		if s.group[slot*s.words+n/64]>>(n%64)&1 != 0 {
			g.Set(n)
		}
	}
	return g
}
