package callsum_test

import (
	"testing"

	"sdds/internal/analysis"
	"sdds/internal/analysis/callsum"
)

// TestRecursionFixpoint proves the SCC pass converges on cycles and
// propagates effects through them: mutual recursion picks up the
// wall-clock effect from the recursion floor, self recursion keeps its
// allocation, and an effect-free cycle stays clean.
func TestRecursionFixpoint(t *testing.T) {
	mod, err := analysis.LoadModule("../../..", "internal/analysis/callsum/testdata/src/recursion")
	if err != nil {
		t.Fatal(err)
	}
	pkg := mod.Selected[0]
	sums := callsum.Of(mod)
	sums.ForPackage(pkg)

	sumOf := func(name string) *callsum.Summary {
		t.Helper()
		fn := sums.LookupFunc(pkg.PkgPath, "", name)
		if fn == nil {
			t.Fatalf("LookupFunc(%q) = nil", name)
		}
		sum := sums.ForFunc(fn)
		if sum == nil {
			t.Fatalf("ForFunc(%s) = nil", name)
		}
		return sum
	}

	// Every member of the pingPong/pong SCC carries the wall-clock effect
	// that enters through base.
	for _, name := range []string{"pingPong", "pong", "base"} {
		if sumOf(name).Effect(callsum.WallClock) == nil {
			t.Errorf("%s: no wall-clock effect after fixpoint", name)
		}
	}
	// Self recursion keeps its allocation.
	if sumOf("grow").Effect(callsum.Alloc) == nil {
		t.Error("grow: no alloc effect after fixpoint")
	}
	// The effect-free cycle converges clean.
	for _, name := range []string{"pure", "pureTwin"} {
		for _, k := range []callsum.EffectKind{callsum.Alloc, callsum.WallClock, callsum.GlobalRand, callsum.MapOrder, callsum.RetainEvent} {
			if c := sumOf(name).Effect(k); c != nil {
				t.Errorf("%s: unexpected %v effect: %+v", name, k, c)
			}
		}
	}

	// Chain reconstruction terminates despite the cycle and bottoms out at
	// the intrinsic leaf.
	fn := sums.LookupFunc(pkg.PkgPath, "", "pingPong")
	chain := sums.EffectChain(fn, callsum.WallClock)
	if len(chain) == 0 {
		t.Fatal("pingPong: empty wall-clock chain")
	}
	if got := chain[len(chain)-1].Note; got != "time.Now" {
		t.Errorf("chain leaf note = %q, want %q (chain: %s)", got, "time.Now", callsum.Render(chain))
	}
	if len(chain) > 32 {
		t.Errorf("chain length %d blew past the recursion cap", len(chain))
	}
}

// TestCompositeLiteralFieldsWalked proves effects inside &T{...} field
// values reach the enclosing function's summary — through a helper call
// and directly — while the literal still counts as its one allocation.
func TestCompositeLiteralFieldsWalked(t *testing.T) {
	mod, err := analysis.LoadModule("../../..", "internal/analysis/callsum/testdata/src/literal")
	if err != nil {
		t.Fatal(err)
	}
	pkg := mod.Selected[0]
	sums := callsum.Of(mod)
	for _, name := range []string{"build", "direct"} {
		fn := sums.LookupFunc(pkg.PkgPath, "", name)
		if fn == nil {
			t.Fatalf("LookupFunc(%q) = nil", name)
		}
		sum := sums.ForFunc(fn)
		chain := sums.EffectChain(fn, callsum.WallClock)
		if sum.Effect(callsum.WallClock) == nil || len(chain) == 0 || chain[len(chain)-1].Note != "time.Now" {
			t.Errorf("%s: wall-clock read inside the literal not summarized (chain %q)", name, callsum.Render(chain))
		}
		if c := sum.Effect(callsum.Alloc); c == nil || c.Detail != "&composite literal allocates" {
			t.Errorf("%s: alloc cause = %+v, want the &composite literal itself", name, c)
		}
	}
}

// TestGenericMethodCallee proves a call to a method of an instantiated
// generic type picks up the generic declaration's summary: the caller
// inherits the wall-clock read and the lock, with a chain down to the leaf.
func TestGenericMethodCallee(t *testing.T) {
	mod, err := analysis.LoadModule("../../..", "internal/analysis/callsum/testdata/src/generic")
	if err != nil {
		t.Fatal(err)
	}
	pkg := mod.Selected[0]
	sums := callsum.Of(mod)
	fn := sums.LookupFunc(pkg.PkgPath, "", "caller")
	if fn == nil {
		t.Fatal("LookupFunc(caller) = nil")
	}
	sum := sums.ForFunc(fn)
	if sum.Effect(callsum.WallClock) == nil {
		t.Error("caller: wall-clock read behind the generic method not summarized")
	}
	if chain := sums.EffectChain(fn, callsum.WallClock); len(chain) != 2 || chain[1].Note != "time.Now" {
		t.Errorf("caller: wall-clock chain %q, want caller → stamps.stamp → time.Now", callsum.Render(chain))
	}
	lock := pkg.PkgPath + ".stamps.mu"
	if sum.Locks[lock] == nil {
		t.Errorf("caller: lock set %v lacks %s", sum.Locks, lock)
	}
}
