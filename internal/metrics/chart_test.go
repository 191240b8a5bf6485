package metrics

import (
	"strings"
	"testing"

	"sdds/internal/disk"
	"sdds/internal/sim"
)

func TestBarChartRender(t *testing.T) {
	c := &BarChart{
		Title:  "Normalized energy",
		Groups: []string{"hf", "sar"},
		Series: []string{"simple", "history"},
		Values: [][]float64{{0.95, 0.84}, {0.97, 0.80}},
	}
	out := c.Render()
	if !strings.Contains(out, "Normalized energy") {
		t.Fatal("title missing")
	}
	for _, want := range []string{"hf/simple", "hf/history", "sar/simple", "sar/history", "95.0%", "80.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Longer bar for higher value.
	lines := strings.Split(out, "\n")
	count := func(s string) int { return strings.Count(s, "#") }
	var simpleBar, historyBar int
	for _, l := range lines {
		if strings.Contains(l, "hf/simple") {
			simpleBar = count(l)
		}
		if strings.Contains(l, "hf/history") {
			historyBar = count(l)
		}
	}
	if simpleBar <= historyBar {
		t.Fatalf("bar lengths not ordered: simple %d ≤ history %d", simpleBar, historyBar)
	}
}

func TestBarChartClamping(t *testing.T) {
	c := &BarChart{
		Groups: []string{"g"},
		Series: []string{"s"},
		Values: [][]float64{{2.5}}, // beyond Max
		Width:  10,
	}
	out := c.Render()
	if strings.Count(out, "#") != 10 {
		t.Fatalf("overflow bar not clamped:\n%s", out)
	}
	c.Values = [][]float64{{-0.5}}
	if out := c.Render(); strings.Count(out, "#") != 0 {
		t.Fatalf("negative bar not clamped:\n%s", out)
	}
}

func TestBarChartRaggedInputSafe(t *testing.T) {
	c := &BarChart{
		Groups: []string{"a", "b"},
		Series: []string{"x", "y"},
		Values: [][]float64{{0.5}}, // missing rows/cols must not panic
	}
	_ = c.Render()
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 0.5, 1, 2, -1})
	runes := []rune(s)
	if len(runes) != 5 {
		t.Fatalf("len = %d", len(runes))
	}
	if runes[0] != '▁' || runes[2] != '█' || runes[3] != '█' || runes[4] != '▁' {
		t.Fatalf("sparkline = %q", s)
	}
}

func TestGapTraceRecordAndReplay(t *testing.T) {
	tr := NewGapTrace()
	eng := sim.NewEngine(1)
	d := disk.MustNew(eng, 3, disk.DefaultParams())

	// Gap of 10s ending at t=30s (started at 20s) and 50s ending at 100s.
	eng.RunUntil(30 * sim.Second)
	tr.RecordIdle(d, 10*sim.Second)
	eng.RunUntil(100 * sim.Second)
	tr.RecordIdle(d, 50*sim.Second)

	if tr.Len(3) != 2 {
		t.Fatalf("Len = %d", tr.Len(3))
	}
	// Query near each start.
	if g, ok := tr.NextIdle(3, 19*sim.Second); !ok || g != 10*sim.Second {
		t.Fatalf("NextIdle(19s) = %v, %v", g, ok)
	}
	if g, ok := tr.NextIdle(3, 52*sim.Second); !ok || g != 50*sim.Second {
		t.Fatalf("NextIdle(52s) = %v, %v", g, ok)
	}
	// Unknown disk.
	if _, ok := tr.NextIdle(9, 0); ok {
		t.Fatal("unknown disk returned a hint")
	}
}

func TestGapTraceNearestStartMatching(t *testing.T) {
	tr := NewGapTrace()
	eng := sim.NewEngine(1)
	d := disk.MustNew(eng, 0, disk.DefaultParams())
	// Gaps starting at 10s and 100s.
	eng.RunUntil(20 * sim.Second)
	tr.RecordIdle(d, 10*sim.Second)
	eng.RunUntil(130 * sim.Second)
	tr.RecordIdle(d, 30*sim.Second)
	// Query at 40s: nearest start is 10s (dist 30) vs 100s (dist 60).
	if g, _ := tr.NextIdle(0, 40*sim.Second); g != 10*sim.Second {
		t.Fatalf("nearest-match failed: %v", g)
	}
	if g, _ := tr.NextIdle(0, 90*sim.Second); g != 30*sim.Second {
		t.Fatalf("nearest-match failed high side: %v", g)
	}
}
