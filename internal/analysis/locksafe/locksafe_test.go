package locksafe

import (
	"testing"

	"sdds/internal/analysis"
	"sdds/internal/analysis/callsum"
)

// TestCriticalSetIncludesRunCacheLock pins that Session.RunRequest's
// transitive lock set — locksafe's critical set — sees through the run
// cache's generic memo.Map methods to the memo's mutex.
func TestCriticalSetIncludesRunCacheLock(t *testing.T) {
	mod, err := analysis.LoadModule("../../..", "internal/harness")
	if err != nil {
		t.Fatal(err)
	}
	sums := callsum.Of(mod)
	const lock = "sdds/internal/memo.Map.mu"
	fn := sums.LookupFunc("sdds/internal/harness", "Session", "RunRequest")
	if fn == nil {
		t.Fatal("Session.RunRequest not found")
	}
	if sum := sums.ForFunc(fn); sum == nil || sum.Locks[lock] == nil {
		t.Fatalf("RunRequest's lock set lacks %s", lock)
	}
	if chain := sums.LockChain(fn, lock); len(chain) == 0 {
		t.Errorf("no acquire chain from RunRequest to %s", lock)
	}
	if criticalLocks(sums)[lock] != fn {
		t.Errorf("critical set does not attribute %s to RunRequest", lock)
	}
}
