package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sdds/internal/probe"
)

// TestWorkloadsTiny runs every workload untraced and traced on tiny inputs
// through the command-line entry point, and checks that the printed metric
// names and units are exactly BENCHMARK.json's, that no op failed, and
// that the traced run wrote a valid Chrome trace.
func TestWorkloadsTiny(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	results := filepath.Join(t.TempDir(), "results.jsonl")
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, trace), func(t *testing.T) {
				args := []string{"-root", "..", "-workload", wl.Name, "-seed", "7", "-tiny", "-out", results, "-trace", "0"}
				if trace {
					args[len(args)-1] = "1"
				}
				var stdout, stderr bytes.Buffer
				if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				defs := spec.metrics(trace)
				if len(lines) != len(defs)+1 {
					t.Fatalf("printed %d lines, want %d metrics and a summary:\n%s", len(lines), len(defs), stdout.String())
				}
				var summary struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
					t.Fatalf("summary line: %v", err)
				}
				if !summary.Correct || summary.Failed != 0 || summary.Attempted < 1 {
					t.Errorf("summary: correct=%v attempted=%d failed=%d", summary.Correct, summary.Attempted, summary.Failed)
				}
				if len(summary.Metrics) != len(defs) {
					t.Errorf("summary has %d metrics, BENCHMARK.json declares %d", len(summary.Metrics), len(defs))
				}
				for i, d := range defs {
					f := strings.Fields(lines[i])
					if len(f) != 4 || f[0] != wl.Name || f[1] != d.Name || f[3] != d.Unit {
						t.Errorf("line %d = %q, want %s %s <value> %s", i, lines[i], wl.Name, d.Name, d.Unit)
					}
					if m, ok := summary.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("summary metric %s = %+v, want unit %s", d.Name, m, d.Unit)
					}
				}
				if trace {
					data, err := os.ReadFile(filepath.Join("..", ".bench_build", "trace-"+wl.Name+"-7.json"))
					if err != nil {
						t.Fatal(err)
					}
					problems, _, err := probe.CheckChromeTrace(data)
					if err != nil || len(problems) > 0 {
						t.Errorf("Chrome trace: %v %v", err, problems)
					}
				}
			})
		}
	}
}

// TestReadmeCatalogue keeps the README's metric catalogue in step with
// BENCHMARK.json: one row per metric, with its unit, direction and bound
// ("—" for per-layer metrics, which carry none).
func TestReadmeCatalogue(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open("README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string][]string{}
	sc := bufio.NewScanner(f)
	inCatalogue := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			inCatalogue = line == "## Metric catalogue"
		}
		if !inCatalogue || !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		name := strings.Trim(cells[0], "`")
		if _, dup := rows[name]; dup {
			t.Errorf("README lists %s twice", name)
		}
		rows[name] = cells
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		declared[d.Name] = true
		cells, ok := rows[d.Name]
		if !ok {
			t.Errorf("README has no row for %s", d.Name)
			continue
		}
		bound := "—"
		if d.Bound > 0 {
			bound = strconv.FormatFloat(d.Bound, 'g', -1, 64)
		}
		if len(cells) < 4 || cells[1] != d.Unit || cells[2] != d.Better || cells[3] != bound {
			t.Errorf("README row %v, want unit %s, better %s, bound %s", cells, d.Unit, d.Better, bound)
		}
	}
	for name := range rows {
		if !declared[name] {
			t.Errorf("README lists %s, which BENCHMARK.json does not declare", name)
		}
	}
}
