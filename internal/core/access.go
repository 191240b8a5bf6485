// Package core implements the paper's primary contribution: the
// compiler-side data access scheduling algorithms of §IV. Given the set of
// I/O accesses of a parallel program — each with its slack window (the
// iterations between the last preceding write of a block and its read), its
// I/O-node signature, its length in scheduling slots and its process id —
// the scheduler picks one scheduling point per access that maximizes
// horizontal and vertical I/O-node reuse, optionally subject to the θ
// performance constraint (§IV-B3). The result is a per-process scheduling
// table consumed by the runtime data access scheduler.
package core

import (
	"fmt"

	"sdds/internal/stripe"
)

// Access is one disk I/O call extracted by the compiler, in the form the
// scheduling algorithms consume (a in Fig. 11).
type Access struct {
	// ID uniquely identifies the access within one scheduling problem.
	// IDs index the schedule, so they must be non-negative and should be
	// dense (the compiler numbers accesses 0..n−1).
	ID int
	// Proc is the issuing process (thread) id, non-negative: at most one
	// access per process may occupy a given slot.
	Proc int
	// Begin and End delimit the slack window [a.b, a.e] in scheduling
	// slots, inclusive. A negative slack must be normalized by the slack
	// analysis to a window of length 1 before reaching the scheduler.
	Begin, End int
	// Length is the number of consecutive slots the access occupies once
	// scheduled (1 in the basic algorithm; ≥1 in the extended one).
	Length int
	// Sig is the set of I/O nodes the access visits.
	Sig stripe.Signature
	// Orig is the access's original issue slot in the untransformed
	// program (the read point). The runtime scheduler prefetches only
	// accesses scheduled earlier than their original point.
	Orig int
}

// SlackLen returns the slack length a.e − a.b + 1 used as the processing
// order key (shortest-first).
func (a *Access) SlackLen() int { return a.End - a.Begin + 1 }

// LatestStart returns the last slot at which the access can start and still
// complete within its slack. When the access is longer than its slack, the
// only choice is Begin (best effort).
func (a *Access) LatestStart() int {
	s := a.End - a.Length + 1
	if s < a.Begin {
		return a.Begin
	}
	return s
}

// checkPoint reports why point cannot be the access's scheduling point, or
// nil: the point must lie in the slack, and an access that fits its slack
// must not overrun the slack's end.
func (a *Access) checkPoint(point int) error {
	if point < a.Begin || point > a.End {
		return fmt.Errorf("core: access %d scheduled at %d outside slack [%d,%d]", a.ID, point, a.Begin, a.End)
	}
	if point+a.Length-1 > a.End && a.Length <= a.SlackLen() {
		return fmt.Errorf("core: access %d (len %d) at %d overruns slack end %d", a.ID, a.Length, point, a.End)
	}
	return nil
}

// Validate reports the first problem with the access, or nil.
func (a *Access) Validate(numSlots, numNodes int) error {
	switch {
	case a.ID < 0:
		return fmt.Errorf("core: access %d: negative ID", a.ID)
	case a.Proc < 0:
		return fmt.Errorf("core: access %d: negative proc %d", a.ID, a.Proc)
	case a.Length < 1:
		return fmt.Errorf("core: access %d: length %d < 1", a.ID, a.Length)
	case a.Begin < 0 || a.End < a.Begin:
		return fmt.Errorf("core: access %d: bad slack [%d,%d]", a.ID, a.Begin, a.End)
	case a.End >= numSlots:
		return fmt.Errorf("core: access %d: slack end %d ≥ slot count %d", a.ID, a.End, numSlots)
	case a.Sig.Len() != numNodes:
		return fmt.Errorf("core: access %d: signature over %d nodes, want %d", a.ID, a.Sig.Len(), numNodes)
	case a.Sig.Empty():
		return fmt.Errorf("core: access %d: empty signature", a.ID)
	}
	return nil
}

// Params configures the scheduler.
type Params struct {
	// NumSlots is the total number of scheduling slots Nt.
	NumSlots int
	// NumNodes is the I/O-node count n (signature width).
	NumNodes int
	// Delta is the vertical reuse range δ (Table II default: 20).
	Delta int
	// Theta caps the number of accesses touching any single I/O node in
	// one slot (Table II default: 4). Zero disables the constraint
	// (§IV-B1/B2 behaviour).
	Theta int
	// RandomTies, when non-nil, selects uniformly among equally good slots
	// using the provided function (the paper chooses randomly); nil keeps
	// the first-found best slot, which makes runs deterministic.
	RandomTies func(n int) int
	// NoWeights disables the σ position weights (ablation: every slot in
	// the vertical range counts fully).
	NoWeights bool
	// Order overrides the processing order (ablation); default is
	// shortest-slack-first as in Fig. 11.
	Order OrderKind
}

// OrderKind selects the order in which accesses are scheduled.
type OrderKind int

// Processing orders. OrderSlack is the paper's; the others exist for the
// ablation benchmarks.
const (
	// OrderSlack processes shortest slack first (Fig. 11 line 4).
	OrderSlack OrderKind = iota
	// OrderInput keeps the input (program) order.
	OrderInput
	// OrderLongestSlack processes longest slack first (anti-heuristic).
	OrderLongestSlack
)

// Validate reports the first parameter problem, or nil.
func (p Params) Validate() error {
	switch {
	case p.NumSlots <= 0:
		return fmt.Errorf("core: NumSlots %d must be positive", p.NumSlots)
	case p.NumNodes <= 0:
		return fmt.Errorf("core: NumNodes %d must be positive", p.NumNodes)
	case p.Delta < 0:
		return fmt.Errorf("core: Delta %d must be ≥ 0", p.Delta)
	case p.Theta < 0:
		return fmt.Errorf("core: Theta %d must be ≥ 0", p.Theta)
	}
	return nil
}

// DefaultParams returns the Table II algorithm parameters (δ=20, θ=4) for
// the given problem size.
func DefaultParams(numSlots, numNodes int) Params {
	return Params{NumSlots: numSlots, NumNodes: numNodes, Delta: 20, Theta: 4}
}

// Weight returns the σ|k| position weight for an offset k slots outside the
// occupied span: σ|k| = 1 − |k|/(δ+1) (Eq. 3), so the occupied span itself
// has weight 1 and weights decay linearly to 0 just past δ.
func Weight(k, delta int) float64 {
	if k < 0 {
		k = -k
	}
	if k > delta {
		return 0
	}
	return 1 - float64(k)/float64(delta+1)
}
