// Package loop defines the program representation the "optimizing compiler"
// side of the framework consumes: parallel applications structured as a
// sequence of loop nests over disk-resident files (§IV-A, Fig. 5), with I/O
// statements whose byte regions are affine functions of the outer loop
// iteration and the process id. Iterations of the outer loops are the
// scheduling slots; nests execute in sequence with a barrier in between
// (the phase structure of MPI programs), and parallel nests are
// block-decomposed over processes.
package loop

import (
	"fmt"

	"sdds/internal/sim"
)

// StmtKind discriminates the statements in a nest body.
type StmtKind int

// Statement kinds.
const (
	// StmtRead is a read I/O call (MPI_File_read).
	StmtRead StmtKind = iota + 1
	// StmtWrite is a write I/O call (MPI_File_write).
	StmtWrite
	// StmtCompute is pure computation with a fixed per-iteration cost.
	StmtCompute
)

// String names the kind.
func (k StmtKind) String() string {
	switch k {
	case StmtRead:
		return "read"
	case StmtWrite:
		return "write"
	case StmtCompute:
		return "compute"
	default:
		return "invalid"
	}
}

// Affine describes a byte region as an affine function of the outer loop
// iteration i (global index within the nest) and the process id p:
//
//	offset(i, p) = Base + IterCoef·i + ProcCoef·p,  length = Len.
type Affine struct {
	Base     int64
	IterCoef int64
	ProcCoef int64
	Len      int64
}

// At evaluates the region for iteration i and process p.
func (a Affine) At(i, p int) (offset, length int64) {
	return a.Base + a.IterCoef*int64(i) + a.ProcCoef*int64(p), a.Len
}

// RegionFn computes a byte region for non-affine access patterns; programs
// using it require the profiling tool for slack analysis.
type RegionFn func(i, p int) (offset, length int64)

// Stmt is one statement of a nest body, executed once per outer iteration.
type Stmt struct {
	Kind StmtKind
	// File identifies the disk-resident file for I/O statements.
	File int
	// Region describes affine I/O statements. Ignored when Custom is set.
	Region Affine
	// Custom, when non-nil, marks the statement non-affine.
	Custom RegionFn
	// Cost is the computation time for StmtCompute.
	Cost sim.Duration
	// Every executes the statement only when i%Every == 0 (0 and 1 mean
	// every iteration) — the "read a block every k iterations" shape of
	// out-of-core codes.
	Every int
}

// Affine reports whether the statement's region is analyzable without
// profiling.
func (s Stmt) IsAffine() bool { return s.Custom == nil }

// runsAt reports whether the statement executes at outer iteration i.
func (s Stmt) runsAt(i int) bool {
	if s.Kind == StmtCompute {
		return true
	}
	if s.Every <= 1 {
		return true
	}
	return i%s.Every == 0
}

// RegionAt evaluates the statement's byte region at (i, p).
func (s Stmt) RegionAt(i, p int) (offset, length int64) {
	if s.Custom != nil {
		return s.Custom(i, p)
	}
	return s.Region.At(i, p)
}

// Nest is one loop nest: Trips outer iterations, each executing Body in
// order. Parallel nests block-decompose the Trips iterations over the
// processes; serial nests are executed redundantly by every process (the
// common "everyone reads the header" shape).
type Nest struct {
	Name     string
	Trips    int
	Parallel bool
	Body     []Stmt
	// IterCost is additional computation per outer iteration on top of any
	// StmtCompute statements.
	IterCost sim.Duration
}

// File is a disk-resident data set.
type File struct {
	ID   int
	Name string
	Size int64
}

// Program is a whole application.
type Program struct {
	Name  string
	Files []File
	Nests []Nest
}

// Validate reports the first structural problem, or nil.
func (p *Program) Validate() error {
	if len(p.Nests) == 0 {
		return fmt.Errorf("loop: program %q has no nests", p.Name)
	}
	files := make(map[int]File, len(p.Files))
	for _, f := range p.Files {
		if f.Size <= 0 {
			return fmt.Errorf("loop: file %q size %d must be positive", f.Name, f.Size)
		}
		if _, dup := files[f.ID]; dup {
			return fmt.Errorf("loop: duplicate file id %d", f.ID)
		}
		files[f.ID] = f
	}
	for ni, n := range p.Nests {
		if n.Trips <= 0 {
			return fmt.Errorf("loop: nest %d (%s) trips %d must be positive", ni, n.Name, n.Trips)
		}
		for si, s := range n.Body {
			switch s.Kind {
			case StmtRead, StmtWrite:
				if _, ok := files[s.File]; !ok {
					return fmt.Errorf("loop: nest %d stmt %d references unknown file %d", ni, si, s.File)
				}
				if s.IsAffine() && s.Region.Len <= 0 {
					return fmt.Errorf("loop: nest %d stmt %d has non-positive length", ni, si)
				}
			case StmtCompute:
				if s.Cost < 0 {
					return fmt.Errorf("loop: nest %d stmt %d negative cost", ni, si)
				}
			default:
				return fmt.Errorf("loop: nest %d stmt %d invalid kind %d", ni, si, s.Kind)
			}
		}
	}
	return nil
}

// IsAffine reports whether every I/O statement is affine (polyhedral
// analysis applies); otherwise the profiling tool must be used (§IV-A).
func (p *Program) IsAffine() bool {
	for _, n := range p.Nests {
		for _, s := range n.Body {
			if (s.Kind == StmtRead || s.Kind == StmtWrite) && !s.IsAffine() {
				return false
			}
		}
	}
	return true
}

// FileByID returns the file record.
func (p *Program) FileByID(id int) (File, bool) {
	for _, f := range p.Files {
		if f.ID == id {
			return f, true
		}
	}
	return File{}, false
}

// chunk returns the per-process iteration count of a nest.
func (n Nest) chunk(procs int) int {
	if !n.Parallel {
		return n.Trips
	}
	return (n.Trips + procs - 1) / procs
}

// Slots returns the total number of scheduling slots for the given process
// count: the sum over nests of per-process outer iterations.
func (p *Program) Slots(procs int) int {
	total := 0
	for _, n := range p.Nests {
		total += n.chunk(procs)
	}
	return total
}

// NestSlotOffset returns the slot index at which nest ni begins.
func (p *Program) NestSlotOffset(procs, ni int) int {
	off := 0
	for i := 0; i < ni && i < len(p.Nests); i++ {
		off += p.Nests[i].chunk(procs)
	}
	return off
}

// IterOf returns the global iteration a process executes at local slot k of
// nest ni, and whether the process executes it at all (block decomposition
// can leave trailing processes short).
func (p *Program) IterOf(procs, ni, proc, k int) (int, bool) {
	n := p.Nests[ni]
	if !n.Parallel {
		if k >= n.Trips {
			return 0, false
		}
		return k, true
	}
	chunk := n.chunk(procs)
	if k >= chunk {
		return 0, false
	}
	iter := proc*chunk + k
	if iter >= n.Trips {
		return 0, false
	}
	return iter, true
}

// IOInstance is one dynamic I/O call: statement si of nest ni, executed by
// proc at the given slot, touching [Offset, Offset+Length) of File.
type IOInstance struct {
	Proc   int
	Slot   int
	Nest   int
	Stmt   int
	Kind   StmtKind
	File   int
	Offset int64
	Length int64
}

// Instances returns every I/O instance of the program for the given process
// count, in EachInstance's order, in one exactly sized slice.
func (p *Program) Instances(procs int) []IOInstance {
	n := 0
	p.EachInstance(procs, func(IOInstance) { n++ })
	out := make([]IOInstance, 0, n)
	p.EachInstance(procs, func(in IOInstance) { out = append(out, in) })
	return out
}

// EachInstance calls fn for every I/O instance of the program for the
// given process count, in (nest, slot, proc, stmt) order — the canonical
// total enumeration shared by the slack analyses and the executor. Nests
// own disjoint ascending slot ranges, so the order is also (slot, proc,
// nest, stmt). It allocates nothing.
func (p *Program) EachInstance(procs int, fn func(IOInstance)) {
	base := 0
	for ni := range p.Nests {
		n := &p.Nests[ni]
		chunk := n.chunk(procs)
		for k := 0; k < chunk; k++ {
			for proc := 0; proc < procs; proc++ {
				iter, ok := p.IterOf(procs, ni, proc, k)
				if !ok {
					continue
				}
				for si := range n.Body {
					s := &n.Body[si]
					if s.Kind == StmtCompute || !s.runsAt(iter) {
						continue
					}
					off, length := s.RegionAt(iter, proc)
					if length <= 0 {
						continue
					}
					fn(IOInstance{
						Proc: proc, Slot: base + k, Nest: ni, Stmt: si,
						Kind: s.Kind, File: s.File, Offset: off, Length: length,
					})
				}
			}
		}
		base += chunk
	}
}

// Slack is a read instance together with its analyzed slack window
// [Begin, End] in slots (End is the read's own slot). WriterSlot is the
// slot of the last preceding write, or -1 when the data pre-exists on disk.
type Slack struct {
	Inst       IOInstance
	Begin, End int
	WriterSlot int
}

// Len returns the slack length in slots.
func (s Slack) Len() int { return s.End - s.Begin + 1 }
