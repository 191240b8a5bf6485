// Package benchfmt parses `go test -bench` output lines and renders
// benchmark result sets as deterministic JSON. It is the format layer of
// cmd/benchcheck, which both records BENCH_sim.json (-write) and compares
// a fresh run against it, so recording and checking cannot drift on what
// a benchmark line or the committed baseline means.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Results maps benchmark name to its measured values by unit ("ns/op",
// "allocs/op", "iterations", custom b.ReportMetric units).
type Results map[string]map[string]float64

// ParseLine extracts one benchmark result. The format is the fixed
// testing package shape: name, iteration count, then (value, unit) pairs.
// The -GOMAXPROCS suffix is dropped so names are stable across machines.
func ParseLine(line string) (string, map[string]float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	iters, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return "", nil, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	vals := map[string]float64{"iterations": iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		vals[fields[i+1]] = v
	}
	return name, vals, true
}

// Parse reads a full `go test -bench` stream, collecting every benchmark
// line and ignoring everything else (PASS/ok trailers, test logs), so the
// unfiltered stream can be piped in.
func Parse(r io.Reader) (Results, error) {
	results := make(Results)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, vals, ok := ParseLine(sc.Text())
		if !ok {
			continue
		}
		results[name] = vals
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// MarshalSorted renders the results with deterministic key order so the
// committed BENCH_sim.json diffs cleanly between runs.
func MarshalSorted(results Results) ([]byte, error) {
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{\n")
	for i, n := range names {
		keys := make([]string, 0, len(results[n]))
		for k := range results[n] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		nameJSON, err := json.Marshal(n)
		if err != nil {
			return nil, err
		}
		b.WriteString("  ")
		b.Write(nameJSON)
		b.WriteString(": {")
		for j, k := range keys {
			kJSON, err := json.Marshal(k)
			if err != nil {
				return nil, err
			}
			if j > 0 {
				b.WriteString(", ")
			}
			b.Write(kJSON)
			fmt.Fprintf(&b, ": %g", results[n][k])
		}
		if i+1 < len(names) {
			b.WriteString("},\n")
		} else {
			b.WriteString("}\n")
		}
	}
	b.WriteString("}\n")
	return []byte(b.String()), nil
}

// UnmarshalBaseline parses a committed BENCH_sim.json.
func UnmarshalBaseline(data []byte) (Results, error) {
	var r Results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return r, nil
}
