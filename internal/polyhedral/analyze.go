// Package polyhedral implements the affine slack analysis of §IV-A — the
// role the Omega library plays in the paper. For programs whose I/O regions
// are affine functions of the outer loop iteration and the process id, it
// computes, for every read instance, the latest preceding write instance
// touching an overlapping byte range, in closed form: the overlap condition
// is a pair of linear inequalities in the writer's iteration, solved per
// (write statement, writer process) pair without enumerating iterations.
// Its output is bit-identical to the profiling tool's on affine programs.
package polyhedral

import (
	"fmt"

	"sdds/internal/loop"
)

// ErrNonAffine is returned when the program contains non-affine I/O
// statements; callers fall back to the profiling tool (§IV-A).
type ErrNonAffine struct {
	Nest, Stmt int
}

func (e *ErrNonAffine) Error() string {
	return fmt.Sprintf("polyhedral: nest %d stmt %d is non-affine; use the profiling tool", e.Nest, e.Stmt)
}

// writeStmt is a flattened affine write statement with its placement data.
type writeStmt struct {
	nest     int
	stmt     int
	region   loop.Affine
	every    int
	trips    int
	parallel bool
	chunk    int // per-proc iterations
	slotBase int
}

// Analyze computes read slacks for an affine program (same contract as
// trace.Profile).
func Analyze(p *loop.Program, procs int) ([]loop.Slack, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var writes []writeStmt
	for ni, n := range p.Nests {
		for si, s := range n.Body {
			if s.Kind == loop.StmtCompute {
				continue
			}
			if !s.IsAffine() {
				return nil, &ErrNonAffine{Nest: ni, Stmt: si}
			}
			if s.Kind == loop.StmtWrite {
				writes = append(writes, writeStmt{
					nest: ni, stmt: si, region: s.Region, every: s.Every,
					trips: n.Trips, parallel: n.Parallel, chunk: chunkOf(n, procs),
					slotBase: p.NestSlotOffset(procs, ni),
				})
			}
		}
	}

	byFile := indexWrites(p, writes)
	reads := 0
	p.EachInstance(procs, func(inst loop.IOInstance) {
		if inst.Kind == loop.StmtRead {
			reads++
		}
	})
	// EachInstance's (nest, slot, proc, stmt) order is already the
	// (slot, proc, nest, stmt) order the profiler sorts into.
	out := make([]loop.Slack, 0, reads)
	p.EachInstance(procs, func(inst loop.IOInstance) {
		if inst.Kind != loop.StmtRead {
			return
		}
		w := lastWriter(byFile[inst.File], procs, inst)
		begin := 0
		if w >= 0 {
			begin = w + 1
		}
		if begin > inst.Slot {
			begin = inst.Slot
		}
		out = append(out, loop.Slack{Inst: inst, Begin: begin, End: inst.Slot, WriterSlot: w})
	})
	return out, nil
}

func chunkOf(n loop.Nest, procs int) int {
	if !n.Parallel {
		return n.Trips
	}
	return (n.Trips + procs - 1) / procs
}

func indexWrites(p *loop.Program, writes []writeStmt) map[int][]writeStmt {
	byFile := make(map[int][]writeStmt)
	for _, w := range writes {
		file := p.Nests[w.nest].Body[w.stmt].File
		byFile[file] = append(byFile[file], w)
	}
	return byFile
}

// lastWriter returns the maximum slot < inst.Slot at which any instance of
// the file's write statements overlaps the read's byte range, or -1.
func lastWriter(writes []writeStmt, procs int, inst loop.IOInstance) int {
	r0 := inst.Offset
	r1 := inst.Offset + inst.Length
	best := -1
	for _, w := range writes {
		for q := 0; q < procs; q++ {
			// Writer q's iteration range.
			lo, hi := 0, w.trips-1
			if w.parallel {
				lo = q * w.chunk
				hi = (q+1)*w.chunk - 1
				if hi >= w.trips {
					hi = w.trips - 1
				}
				if lo > hi {
					continue
				}
			}
			// Overlap in j: wb + wc·j + wp·q < r1  AND  wb + wc·j + wp·q + wl > r0.
			base := w.region.Base + w.region.ProcCoef*int64(q)
			jlo, jhi, any := solveOverlap(base, w.region.IterCoef, w.region.Len, r0, r1, int64(lo), int64(hi))
			if !any {
				continue
			}
			// Slot of iteration j: slotBase + (j − lo) for parallel blocks,
			// slotBase + j for serial nests (lo = 0 there).
			// Constraint slot(j) < inst.Slot bounds j from above.
			localBase := w.slotBase - lo
			maxJBySlot := int64(inst.Slot - 1 - localBase)
			if jhi > maxJBySlot {
				jhi = maxJBySlot
			}
			if jhi < jlo {
				continue
			}
			// Honor the statement's Every stride: largest j ≤ jhi with
			// j % every == 0.
			j := jhi
			if w.every > 1 {
				j = jhi - jhi%int64(w.every)
				if j < jlo {
					continue
				}
				// With IterCoef possibly nonzero the overlap window may
				// exclude this aligned j; walk down stride by stride.
				ok := false
				for ; j >= jlo; j -= int64(w.every) {
					o := base + w.region.IterCoef*j
					if o < r1 && o+w.region.Len > r0 {
						ok = true
						break
					}
				}
				if !ok {
					continue
				}
			}
			slot := localBase + int(j)
			if slot > best {
				best = slot
			}
		}
	}
	return best
}

// solveOverlap returns the j range within [jmin, jmax] where
// base + c·j < r1 and base + c·j + l > r0, and whether it is non-empty.
func solveOverlap(base, c, l, r0, r1, jmin, jmax int64) (int64, int64, bool) {
	if c == 0 {
		if base < r1 && base+l > r0 {
			return jmin, jmax, jmin <= jmax
		}
		return 0, 0, false
	}
	// c·j < r1 − base        → j < (r1 − base)/c
	// c·j > r0 − l − base    → j > (r0 − l − base)/c
	hiBound := r1 - base     // exclusive numerator
	loBound := r0 - l - base // exclusive numerator
	var lo, hi int64
	if c > 0 {
		hi = ceilDiv(hiBound, c) - 1  // j ≤ ceil(hiBound/c) − 1  ⇔ c·j < hiBound
		lo = floorDiv(loBound, c) + 1 // j ≥ floor(loBound/c) + 1 ⇔ c·j > loBound
	} else {
		// A negative coefficient flips both inequalities.
		lo = floorDiv(hiBound, c) + 1 // c·j < hiBound ⇔ j > hiBound/c
		hi = ceilDiv(loBound, c) - 1  // c·j > loBound ⇔ j < loBound/c
	}
	if lo < jmin {
		lo = jmin
	}
	if hi > jmax {
		hi = jmax
	}
	return lo, hi, lo <= hi
}

// floorDiv is floor(a/b) for b ≠ 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// ceilDiv is ceil(a/b) for b ≠ 0.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}
