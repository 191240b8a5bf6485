package polyhedral

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sdds/internal/loop"
	"sdds/internal/sim"
	"sdds/internal/trace"
	"sdds/internal/workloads"
)

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct{ a, b, fl, ce int64 }{
		{7, 2, 3, 4}, {-7, 2, -4, -3}, {7, -2, -4, -3}, {-7, -2, 3, 4},
		{6, 3, 2, 2}, {-6, 3, -2, -2}, {0, 5, 0, 0},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.fl {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.fl)
		}
		if got := ceilDiv(c.a, c.b); got != c.ce {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ce)
		}
	}
}

func TestSolveOverlap(t *testing.T) {
	// Writer regions [100j, 100j+100); read range [250, 450) → j ∈ {2,3,4}
	// minus non-overlap: j=2 gives [200,300) overlap ✓; j=4 gives [400,500) ✓.
	lo, hi, ok := solveOverlap(0, 100, 100, 250, 450, 0, 10)
	if !ok || lo != 2 || hi != 4 {
		t.Fatalf("solveOverlap = [%d,%d] %v, want [2,4]", lo, hi, ok)
	}
	// Constant region that overlaps: full j range.
	lo, hi, ok = solveOverlap(300, 0, 50, 250, 450, 3, 7)
	if !ok || lo != 3 || hi != 7 {
		t.Fatalf("constant overlap = [%d,%d] %v", lo, hi, ok)
	}
	// Constant region that misses.
	if _, _, ok := solveOverlap(1000, 0, 50, 250, 450, 0, 9); ok {
		t.Fatal("non-overlapping constant region matched")
	}
	// Negative coefficient: offset 1000 − 100j, len 100; read [250, 450)
	// → 1000−100j < 450 → j > 5.5 → j ≥ 6; 1100−100j > 250 → j < 8.5 → j ≤ 8.
	lo, hi, ok = solveOverlap(1000, -100, 100, 250, 450, 0, 20)
	if !ok || lo != 6 || hi != 8 {
		t.Fatalf("negative coef = [%d,%d] %v, want [6,8]", lo, hi, ok)
	}
}

func TestAnalyzeRejectsNonAffine(t *testing.T) {
	p := &loop.Program{
		Files: []loop.File{{ID: 0, Name: "f", Size: 1 << 20}},
		Nests: []loop.Nest{{Trips: 4, Body: []loop.Stmt{{
			Kind: loop.StmtRead, File: 0,
			Custom: func(i, proc int) (int64, int64) { return int64(i * i), 64 },
		}}}},
	}
	_, err := Analyze(p, 2)
	var na *ErrNonAffine
	if !errors.As(err, &na) {
		t.Fatalf("err = %v, want ErrNonAffine", err)
	}
	if na.Nest != 0 || na.Stmt != 0 {
		t.Fatalf("ErrNonAffine = %+v", na)
	}
}

// randomAffineProgram builds a random but valid affine program mixing
// parallel/serial nests, writes/reads, strides and proc-dependent regions.
func randomAffineProgram(rng *rand.Rand) *loop.Program {
	numNests := 2 + rng.Intn(3)
	p := &loop.Program{
		Name:  "rand",
		Files: []loop.File{{ID: 0, Name: "a", Size: 1 << 30}, {ID: 1, Name: "b", Size: 1 << 30}},
	}
	for n := 0; n < numNests; n++ {
		nest := loop.Nest{
			Trips:    4 + rng.Intn(12),
			Parallel: rng.Intn(3) > 0,
			IterCost: sim.Duration(rng.Intn(1000)),
		}
		numStmts := 1 + rng.Intn(3)
		for s := 0; s < numStmts; s++ {
			kind := loop.StmtRead
			if rng.Intn(2) == 0 {
				kind = loop.StmtWrite
			}
			stmt := loop.Stmt{
				Kind: kind,
				File: rng.Intn(2),
				Region: loop.Affine{
					Base:     int64(rng.Intn(4)) * 512,
					IterCoef: int64(rng.Intn(5)-2) * 512, // −1024..1024, may be 0 or negative
					ProcCoef: int64(rng.Intn(3)) * 4096,
					Len:      int64(1+rng.Intn(8)) * 256,
				},
				Every: rng.Intn(3), // 0, 1, or 2
			}
			if stmt.Region.IterCoef < 0 {
				// Keep offsets nonnegative over the trip range.
				stmt.Region.Base += -stmt.Region.IterCoef * int64(nest.Trips)
			}
			nest.Body = append(nest.Body, stmt)
		}
		p.Nests = append(p.Nests, nest)
	}
	return p
}

// matchesProfiler reports the first difference between Analyze and the
// profiling tool on p, or a slack out of (slot, proc, nest, stmt) order.
func matchesProfiler(p *loop.Program, procs int) error {
	want, err := trace.Profile(p, procs)
	if err != nil {
		return err
	}
	got, err := Analyze(p, procs)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d slacks, profiler %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("mismatch at %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
		if i > 0 {
			x, y := got[i-1].Inst, got[i].Inst
			if cmp.Or(cmp.Compare(x.Slot, y.Slot), cmp.Compare(x.Proc, y.Proc),
				cmp.Compare(x.Nest, y.Nest), cmp.Compare(x.Stmt, y.Stmt)) >= 0 {
				return fmt.Errorf("slack %d %+v not after slack %d %+v", i, y, i-1, x)
			}
		}
	}
	return nil
}

// TestPropertyMatchesProfiler is the package's key correctness property:
// on any affine program, and on the six workload applications, the
// closed-form analysis must produce exactly the slacks the profiling tool
// derives by execution, strictly ascending in (slot, proc, nest, stmt).
func TestPropertyMatchesProfiler(t *testing.T) {
	f := func(seed int64, procsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomAffineProgram(rng)
		procs := int(procsRaw%7) + 1
		if err := matchesProfiler(p, procs); err != nil {
			t.Logf("seed=%d procs=%d: %v", seed, procs, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	for _, spec := range workloads.All() {
		for _, procs := range []int{7, 32} {
			if err := matchesProfiler(spec.Build(0.02), procs); err != nil {
				t.Errorf("%s procs=%d: %v", spec.Name, procs, err)
			}
		}
	}
}

func TestAnalyzeMatchesProfilerOnMatmulShape(t *testing.T) {
	// The Fig. 5 matrix-multiplication shape: U and V read, W written.
	blocks := int64(8)
	blockBytes := int64(64 << 10)
	p := &loop.Program{
		Name: "matmul",
		Files: []loop.File{
			{ID: 0, Name: "U", Size: blocks * blockBytes},
			{ID: 1, Name: "V", Size: blocks * blockBytes},
			{ID: 2, Name: "W", Size: blocks * blocks * blockBytes},
		},
		Nests: []loop.Nest{{
			Trips: int(blocks * blocks), Parallel: true,
			Body: []loop.Stmt{
				{Kind: loop.StmtRead, File: 0, Region: loop.Affine{IterCoef: 0, Len: blockBytes}, Every: int(blocks)},
				{Kind: loop.StmtRead, File: 1, Region: loop.Affine{IterCoef: blockBytes, Len: blockBytes}},
				{Kind: loop.StmtCompute, Cost: sim.MilliToTime(5)},
				{Kind: loop.StmtWrite, File: 2, Region: loop.Affine{IterCoef: blockBytes, Len: blockBytes}},
			},
		}},
	}
	// V's offsets wrap beyond the file in this sketch; size it up instead.
	p.Files[1].Size = blocks * blocks * blockBytes
	for _, procs := range []int{1, 4, 8} {
		want, err := trace.Profile(p, procs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Analyze(p, procs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("procs=%d: %d vs %d slacks", procs, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("procs=%d: slack %d differs:\n got %+v\nwant %+v", procs, i, got[i], want[i])
			}
		}
	}
}

func BenchmarkAnalyze(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := randomAffineProgram(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(p, 8); err != nil {
			b.Fatal(err)
		}
	}
}
