package cluster

import (
	"context"
	"strings"
	"testing"

	"sdds/internal/power"
)

// TestOracleRecordsDefaultThenReplays pins the two passes of a
// policy=oracle run: the record pass is exactly the Default Scheme run of
// the same setup and config (tracing only observes), and the replay of its
// gap trace reports KindOracle and spends no more energy than Default.
func TestOracleRecordsDefaultThenReplays(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig()
	setup, err := NewSetup(smallProgram(), cfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunPrepared(ctx, setup, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = power.Config{Kind: power.KindOracle}
	rec, gaps, err := recordGaps(ctx, setup, cfg.normalized())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(Fingerprint(rec), "\n"), strings.Join(Fingerprint(base), "\n"); got != want {
		t.Fatalf("record pass diverges from the Default run:\n%s\nvs\n%s", got, want)
	}
	if rec.Policy != power.KindDefault || gaps.Len(0) == 0 {
		t.Fatalf("record pass: policy %v, %d gaps traced on disk 0", rec.Policy, gaps.Len(0))
	}
	orc, err := RunPrepared(ctx, setup, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if orc.Policy != power.KindOracle {
		t.Fatalf("oracle result carries policy %v", orc.Policy)
	}
	if orc.EnergyJ > base.EnergyJ {
		t.Fatalf("oracle used more energy than default: %v vs %v", orc.EnergyJ, base.EnergyJ)
	}
}

func TestRunWithPowerAwareCache(t *testing.T) {
	cfg := smallConfig()
	cfg.Node.PowerAwareCache = true
	cfg.Policy = power.Config{Kind: power.KindSimple}
	res, err := Run(smallProgram(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyJ <= 0 || res.StorageCacheHits+res.StorageCacheMisses == 0 {
		t.Fatal("degenerate PA-LRU run")
	}
}
