package loop_test

import (
	"slices"
	"testing"

	"sdds/internal/loop"
	"sdds/internal/workloads"
)

// referenceInstances enumerates the I/O instances from the public
// placement functions, appending one at a time: nest by nest, slot by
// slot, process by process, statement by statement.
func referenceInstances(p *loop.Program, procs int) []loop.IOInstance {
	var out []loop.IOInstance
	for ni, n := range p.Nests {
		base := p.NestSlotOffset(procs, ni)
		end := p.NestSlotOffset(procs, ni+1)
		for k := 0; base+k < end; k++ {
			for proc := 0; proc < procs; proc++ {
				iter, ok := p.IterOf(procs, ni, proc, k)
				if !ok {
					continue
				}
				for si, s := range n.Body {
					if s.Kind == loop.StmtCompute || (s.Every > 1 && iter%s.Every != 0) {
						continue
					}
					off, length := s.RegionAt(iter, proc)
					if length <= 0 {
						continue
					}
					out = append(out, loop.IOInstance{
						Proc: proc, Slot: base + k, Nest: ni, Stmt: si,
						Kind: s.Kind, File: s.File, Offset: off, Length: length,
					})
				}
			}
		}
	}
	return out
}

// EachInstance must yield exactly the reference enumeration, in order and
// without allocating, and Instances must return the same list in an
// exactly sized slice.
func TestEachInstanceMatchesInstances(t *testing.T) {
	for _, spec := range workloads.All() {
		for _, scale := range []float64{0.02, 0.05} {
			p := spec.Build(scale)
			for _, procs := range []int{1, 7, 32} {
				want := referenceInstances(p, procs)
				got := p.Instances(procs)
				if !slices.Equal(got, want) || cap(got) != len(want) {
					t.Fatalf("%s@%v procs=%d: Instances gave %d instances (cap %d), want the reference's %d",
						spec.Name, scale, procs, len(got), cap(got), len(want))
				}
				i := 0
				p.EachInstance(procs, func(in loop.IOInstance) {
					if i < len(want) && in != want[i] {
						t.Fatalf("%s@%v procs=%d: instance %d = %+v, want %+v", spec.Name, scale, procs, i, in, want[i])
					}
					i++
				})
				if i != len(want) {
					t.Fatalf("%s@%v procs=%d: EachInstance yielded %d instances, want %d", spec.Name, scale, procs, i, len(want))
				}
				if allocs := testing.AllocsPerRun(2, func() { p.EachInstance(procs, func(loop.IOInstance) {}) }); allocs != 0 {
					t.Fatalf("%s@%v procs=%d: EachInstance made %v allocations, want 0", spec.Name, scale, procs, allocs)
				}
			}
		}
	}
}
