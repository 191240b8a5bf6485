package core

import (
	"fmt"
	"sort"

	"sdds/internal/stripe"
)

// Scheduler runs the data access scheduling algorithms of §IV-B. One
// Scheduler instance handles one scheduling problem; it is not safe for
// concurrent use.
type Scheduler struct {
	params Params

	group  []stripe.Signature // G_t: group active signature per slot
	counts [][]int32          // per-slot per-node scheduled access counts (θ)
	busy   map[procSlot]bool  // (proc, slot) occupancy

	// nodes lists the I/O nodes of the access being placed, ascending;
	// filled once per access and reused, so the θ checks and the commit
	// walk it without allocating per candidate slot.
	nodes []int
}

type procSlot struct{ proc, slot int }

// NewScheduler validates params and returns a scheduler.
func NewScheduler(p Params) (*Scheduler, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{
		params: p,
		group:  make([]stripe.Signature, p.NumSlots),
		busy:   make(map[procSlot]bool),
	}
	for i := range s.group {
		s.group[i] = stripe.NewSignature(p.NumNodes)
	}
	if p.Theta > 0 {
		s.counts = make([][]int32, p.NumSlots)
		for i := range s.counts {
			s.counts[i] = make([]int32, p.NumNodes)
		}
	}
	return s, nil
}

// Schedule assigns a scheduling point to every access and returns the
// resulting schedule. The input slice is not modified; accesses are
// processed in the configured order (shortest slack first by default).
func (s *Scheduler) Schedule(accesses []*Access) (*Schedule, error) {
	for _, a := range accesses {
		if err := a.Validate(s.params.NumSlots, s.params.NumNodes); err != nil {
			return nil, err
		}
	}
	order := make([]*Access, len(accesses))
	copy(order, accesses)
	switch s.params.Order {
	case OrderSlack:
		sort.SliceStable(order, func(i, j int) bool {
			if li, lj := order[i].SlackLen(), order[j].SlackLen(); li != lj {
				return li < lj
			}
			return order[i].ID < order[j].ID
		})
	case OrderLongestSlack:
		sort.SliceStable(order, func(i, j int) bool {
			if li, lj := order[i].SlackLen(), order[j].SlackLen(); li != lj {
				return li > lj
			}
			return order[i].ID < order[j].ID
		})
	case OrderInput:
		// keep as-is
	default:
		return nil, fmt.Errorf("core: unknown order %d", s.params.Order)
	}

	sched := newSchedule(s.params, len(accesses))
	for _, a := range order {
		s.nodes = a.Sig.AppendNodes(s.nodes[:0])
		point := s.place(a)
		s.commit(a, point)
		sched.assign(a, point)
	}
	sched.finalize()
	return sched, nil
}

// place selects the scheduling point for one access given everything
// committed so far.
func (s *Scheduler) place(a *Access) int {
	type cand struct {
		slot  int
		reuse float64
	}
	var cands []cand
	bestReuse := -1.0
	latest := a.LatestStart()
	for t := a.Begin; t <= latest; t++ {
		if s.occupied(a, t) {
			continue // Fig. 11 line 8: slot unavailable
		}
		r := s.reuseFactor(a, t)
		switch {
		case r > bestReuse:
			bestReuse = r
			cands = cands[:0]
			cands = append(cands, cand{t, r})
		case r == bestReuse:
			cands = append(cands, cand{t, r})
		}
	}
	if len(cands) == 0 {
		// Every start violates per-process availability (extremely dense
		// schedule): fall back to the slack start, best effort.
		return a.Begin
	}

	if s.params.Theta > 0 {
		// §IV-B3: walk candidates in non-increasing reuse order (all
		// collected slots share the max reuse; extend the walk to every
		// available slot sorted by reuse) and pick the first that meets
		// the θ constraint over the access's whole span.
		all := s.availableByReuse(a)
		for _, c := range all {
			if s.thetaOK(a, c.slot) {
				return c.slot
			}
		}
		// No slot satisfies θ: choose the one with minimum average number
		// of additional accesses E_t.
		best := all[0].slot
		bestE := s.averageExcess(a, all[0].slot)
		for _, c := range all[1:] {
			if e := s.averageExcess(a, c.slot); e < bestE {
				bestE, best = e, c.slot
			}
		}
		return best
	}

	if s.params.RandomTies != nil && len(cands) > 1 {
		return cands[s.params.RandomTies(len(cands))].slot
	}
	return cands[0].slot
}

type reuseSlot struct {
	slot  int
	reuse float64
}

// availableByReuse lists every available start slot sorted by reuse factor,
// non-increasing (ties by slot for determinism).
func (s *Scheduler) availableByReuse(a *Access) []reuseSlot {
	latest := a.LatestStart()
	out := make([]reuseSlot, 0, latest-a.Begin+1)
	for t := a.Begin; t <= latest; t++ {
		if s.occupied(a, t) {
			continue
		}
		out = append(out, reuseSlot{t, s.reuseFactor(a, t)})
	}
	if len(out) == 0 {
		out = append(out, reuseSlot{a.Begin, 0})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].reuse != out[j].reuse {
			return out[i].reuse > out[j].reuse
		}
		return out[i].slot < out[j].slot
	})
	return out
}

// occupied reports whether starting a at slot t would overlap another
// access already scheduled for the same process.
func (s *Scheduler) occupied(a *Access, t int) bool {
	for k := 0; k < a.Length; k++ {
		slot := t + k
		if slot >= s.params.NumSlots {
			break
		}
		if s.busy[procSlot{a.Proc, slot}] {
			return true
		}
	}
	return false
}

// reuseFactor computes R_t (Eq. 2 extended per §IV-B2): unit sub-accesses
// of a starting at t occupy [t, t+len−1] with weight 1; slots up to δ
// before/after the span contribute with linearly decaying weight σ.
func (s *Scheduler) reuseFactor(a *Access, t int) float64 {
	lo := t - s.params.Delta
	hi := t + a.Length - 1 + s.params.Delta
	if lo < 0 {
		lo = 0
	}
	if hi >= s.params.NumSlots {
		hi = s.params.NumSlots - 1
	}
	spanEnd := t + a.Length - 1
	var r float64
	for slot := lo; slot <= hi; slot++ {
		w := 1.0
		if !s.params.NoWeights {
			switch {
			case slot < t:
				w = Weight(t-slot, s.params.Delta)
			case slot > spanEnd:
				w = Weight(slot-spanEnd, s.params.Delta)
			}
		}
		if w == 0 {
			continue
		}
		r += w * a.Sig.InverseDistance(s.group[slot])
	}
	return r
}

// thetaOK reports whether starting a at slot t keeps every I/O node the
// access touches (s.nodes) within θ concurrent accesses across the whole
// span.
func (s *Scheduler) thetaOK(a *Access, t int) bool {
	for k := 0; k < a.Length; k++ {
		slot := t + k
		if slot >= s.params.NumSlots {
			break
		}
		for _, n := range s.nodes {
			if s.counts[slot][n]+1 > int32(s.params.Theta) {
				return false
			}
		}
	}
	return true
}

// averageExcess computes E_t: the average number of accesses beyond θ per
// over-subscribed node, averaged over the slots of the span, assuming a is
// placed at t.
func (s *Scheduler) averageExcess(a *Access, t int) float64 {
	var excess float64
	var overNodes int
	for k := 0; k < a.Length; k++ {
		slot := t + k
		if slot >= s.params.NumSlots {
			break
		}
		for _, n := range s.nodes {
			m := s.counts[slot][n] + 1
			if int(m) > s.params.Theta {
				excess += float64(int(m) - s.params.Theta)
				overNodes++
			}
		}
	}
	if overNodes == 0 {
		return 0
	}
	return excess / float64(overNodes)
}

// commit records a's placement at slot point: per-process occupancy, group
// active signatures, and θ counters.
func (s *Scheduler) commit(a *Access, point int) {
	for k := 0; k < a.Length; k++ {
		slot := point + k
		if slot >= s.params.NumSlots {
			break
		}
		s.busy[procSlot{a.Proc, slot}] = true
		s.group[slot].OrInPlace(a.Sig)
		if s.counts != nil {
			for _, n := range s.nodes {
				s.counts[slot][n]++
			}
		}
	}
}

// GroupSignature exposes the committed group active signature of a slot
// (diagnostics and tests).
func (s *Scheduler) GroupSignature(slot int) stripe.Signature {
	if slot < 0 || slot >= len(s.group) {
		return stripe.NewSignature(s.params.NumNodes)
	}
	return s.group[slot].Clone()
}
