package harness

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// tiny returns a config small enough for unit tests: two apps at 2% scale.
func tiny() Config {
	return Config{Scale: 0.02, Apps: []string{"sar", "madbench2"}, Seed: 1}
}

// runExperiment runs one experiment on a fresh session.
func runExperiment(t *testing.T, id string, c Config) *Result {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewSession(SessionOptions{}).Run(context.Background(), e, c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"table2", "table3", "fig12a", "fig12b", "fig12c", "fig12d",
		"fig13a", "fig13b", "fig13c", "fig13d", "fig14a", "fig14b",
		"cachesens", "compile", "oracle", "palru", "ablations"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("%d experiments, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s", i, got[i].ID, id)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig12c")
	if err != nil || e.ID != "fig12c" {
		t.Fatalf("ByID = %+v, %v", e, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTable2StaticValues(t *testing.T) {
	res := runExperiment(t, "table2", tiny())
	out := res.Render()
	for _, want := range []string{"32", "64KB", "12000 RPM", "17.1W", "44.8W", "16secs", "Elevator", "3600 RPM"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II output missing %q", want)
		}
	}
}

func TestTable3Runs(t *testing.T) {
	res := runExperiment(t, "table3", tiny())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row) != 4 {
			t.Fatalf("row = %v", row)
		}
	}
}

func TestFig12aCDFMonotone(t *testing.T) {
	res := runExperiment(t, "fig12a", tiny())
	// Each app column must be nondecreasing down the bucket rows.
	for col := 1; col < len(res.Headers); col++ {
		prev := -1.0
		for _, row := range res.Rows {
			var v float64
			if _, err := fmtSscan(row[col], &v); err != nil {
				t.Fatalf("parse %q: %v", row[col], err)
			}
			if v < prev {
				t.Fatalf("CDF column %d decreases: %v", col, row)
			}
			prev = v
		}
	}
}

func TestFig12cProducesBars(t *testing.T) {
	res := runExperiment(t, "fig12c", tiny())
	if len(res.Rows) != 2 || len(res.Rows[0]) != 5 {
		t.Fatalf("unexpected shape: %v", res.Rows)
	}
	if len(res.Notes) == 0 || !strings.Contains(res.Notes[0], "average savings") {
		t.Fatalf("notes = %v", res.Notes)
	}
}

func TestCompileCost(t *testing.T) {
	res := runExperiment(t, "compile", tiny())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[4] != "false" {
			t.Errorf("%s compiled via profiler; want polyhedral path", row[0])
		}
	}
}

func TestAblationsRun(t *testing.T) {
	res := runExperiment(t, "ablations", Config{Scale: 0.02, Apps: []string{"sar"}, Seed: 1})
	if len(res.Rows) != 6 {
		t.Fatalf("variants = %d", len(res.Rows))
	}
}

func TestRenderContainsTitleAndRule(t *testing.T) {
	res := &Result{ID: "x", Title: "T", Headers: []string{"A"}, Rows: [][]string{{"1"}}, Notes: []string{"n"}}
	out := res.Render()
	if !strings.Contains(out, "== x: T ==") || !strings.Contains(out, "n\n") {
		t.Fatalf("render = %q", out)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 1.0 || c.Seed != 1 || len(c.Apps) != 6 {
		t.Fatalf("defaults = %+v", c)
	}
}

// fmtSscan parses a percentage like "12.3%".
func fmtSscan(s string, v *float64) (int, error) {
	f, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, err
	}
	*v = f
	return 1, nil
}

func TestOracleExperimentTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("three cluster passes")
	}
	res := runExperiment(t, "oracle", Config{Scale: 0.02, Apps: []string{"sar"}, Seed: 1})
	if len(res.Rows) != 1 || len(res.Rows[0]) != 6 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestPALRUExperimentTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("two cluster passes")
	}
	res := runExperiment(t, "palru", Config{Scale: 0.02, Apps: []string{"sar"}, Seed: 1})
	if len(res.Rows) != 1 || len(res.Rows[0]) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestFig13dSweepTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("ten cluster passes")
	}
	res := runExperiment(t, "fig13d", Config{Scale: 0.02, Apps: []string{"madbench2"}, Seed: 1})
	if len(res.Rows) != 1 || len(res.Rows[0]) != 6 {
		t.Fatalf("rows = %v", res.Rows)
	}
}
