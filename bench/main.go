// Command sddsbench is the repository benchmark. It runs one workload for
// a fixed window, checks every output, and prints either the end-to-end
// metrics (untraced) or the per-layer metrics (traced) that BENCHMARK.json
// declares, one "workload metric value unit" line each, then a one-line
// JSON summary. Build and run it through bench/run.sh:
//
//	bash bench/run.sh --workload golden-direct --seed 42 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --trace 1
//	bash bench/run.sh -compare base.jsonl head.jsonl
//
// With --workload all each workload runs in a fresh child process, one at
// a time. Every invocation appends a result record (metrics, sample counts,
// quartiles, seed, nproc, VCS revision) to .bench_build/results.jsonl, the
// input of -compare.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// benchSpec is BENCHMARK.json: the workloads and the metric catalogue.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricDef declares one metric; Bound is set on end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metrics returns the metrics a traced or untraced invocation emits.
func (s *benchSpec) metrics(trace bool) []metricDef {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// timeUnits are the units of metrics that must be measured on every
// workload.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}

// checkEmitted makes the emitted metrics exactly the declared set. A count
// or ratio of a layer the workload never reaches reads 0; a time must be
// measured on every workload, so a missing one is an error.
func (s *benchSpec) checkEmitted(m map[string]float64, trace bool) error {
	declared := map[string]bool{}
	for _, d := range s.metrics(trace) {
		declared[d.Name] = true
		v, ok := m[d.Name]
		switch {
		case !ok && trace && !timeUnits[d.Unit]:
			m[d.Name] = 0
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
	}
	for name := range m {
		if !declared[name] {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("sddsbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	root := flags.String("root", ".", "checkout root holding BENCHMARK.json")
	name := flags.String("workload", "all", "workload to run, or all (each in a fresh child process)")
	seed := flags.Int64("seed", referenceSeed, "seed of every generated input (positive)")
	seconds := flags.Float64("seconds", 0, "measurement window (0 = BENCHMARK.json run_seconds)")
	traceN := flags.Int("trace", 0, "0: untraced, end-to-end metrics; 1: traced, per-layer metrics and a Chrome trace")
	out := flags.String("out", "", "results file to append to (default .bench_build/results.jsonl)")
	compare := flags.Bool("compare", false, "compare two results files: -compare base.jsonl head.jsonl")
	update := flags.Bool("update-reference", false, "rewrite the workload's digests in bench/testdata/reference.json (seed 42)")
	tiny := flags.Bool("tiny", false, "2% inputs and one pass per mode, unchecked against references: a smoke run")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sddsbench:", err)
		return 1
	}
	spec, err := loadSpec(*root)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flags.NArg() != 2 {
			return fail(errors.New("-compare takes two results files"))
		}
		return compareFiles(spec, flags.Arg(0), flags.Arg(1), stdout, stderr)
	}
	if *seed <= 0 || (*traceN != 0 && *traceN != 1) {
		return fail(fmt.Errorf("need a positive -seed and -trace 0 or 1 (have %d, %d)", *seed, *traceN))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	o := &options{root: *root, work: filepath.Join(*root, ".bench_build"), seed: *seed, seconds: *seconds, trace: *traceN == 1, tiny: *tiny}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return fail(err)
	}
	if *out == "" {
		*out = filepath.Join(o.work, "results.jsonl")
	}
	if *name == "all" {
		return runChildren(ctx, spec, args, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return fail(err)
	}
	if *update {
		if err := updateReference(ctx, w, o); err != nil {
			return fail(err)
		}
		return 0
	}
	res, err := runWorkload(ctx, spec, w, o)
	if err != nil {
		fmt.Fprintf(stderr, "sddsbench: %s: %v\n", w.name, err)
		printSummary(stdout, &result{Attempted: 1, Failed: 1}, spec)
		return 1
	}
	if err := appendResult(*out, res); err != nil {
		return fail(err)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(stderr, "sddsbench: %s: %s\n", w.name, p)
	}
	for _, d := range spec.metrics(o.trace) {
		fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, d.Name, strconv.FormatFloat(res.Metrics[d.Name], 'g', -1, 64), d.Unit)
	}
	printSummary(stdout, res, spec)
	if !res.Correct {
		return 1
	}
	return 0
}

// printSummary writes the one-line JSON result that ends stdout.
func printSummary(w io.Writer, res *result, spec *benchSpec) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range spec.metrics(res.Trace) {
		if v, ok := res.Metrics[d.Name]; ok {
			metrics[d.Name] = value{v, d.Unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	fmt.Fprintln(w, string(line))
}

// runChildren runs every workload of BENCHMARK.json in a fresh child
// process, one at a time, with the same flags.
func runChildren(ctx context.Context, spec *benchSpec, args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "sddsbench:", err)
		return 1
	}
	status := 0
	for _, wl := range spec.Workloads {
		cmd := exec.CommandContext(ctx, exe, append(append([]string(nil), args...), "-workload", wl.Name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "sddsbench: %s: %v\n", wl.Name, err)
			status = 1
		}
	}
	return status
}

func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareFiles compares the correct runs of two results files metric by
// metric and workload by workload, in file order as alternating pairs. It
// fails when any end-to-end metric regressed.
func compareFiles(spec *benchSpec, basePath, headPath string, stdout, stderr io.Writer) int {
	base, err := loadResults(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "sddsbench:", err)
		return 1
	}
	head, err := loadResults(headPath)
	if err != nil {
		fmt.Fprintln(stderr, "sddsbench:", err)
		return 1
	}
	values := func(rs []result, workload string, trace bool, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if r.Workload == workload && r.Trace == trace && r.Correct {
				out = append(out, r.Metrics[metric])
			}
		}
		return out
	}
	status := 0
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			for _, d := range spec.metrics(trace) {
				b, h := values(base, wl.Name, trace, d.Name), values(head, wl.Name, trace, d.Name)
				if len(b) == 0 && len(h) == 0 {
					continue
				}
				v := compareRuns(d, b, h)
				fmt.Fprintf(stdout, "%-16s %-30s %s\n", wl.Name, d.Name, v)
				if v.Outcome == outcomeRegression {
					status = 1
				}
			}
		}
	}
	return status
}

func referencePath(root string) string {
	return filepath.Join(root, "bench", "testdata", "reference.json")
}

// loadReference reads the recorded output digests, by workload.
func loadReference(root string) (map[string]map[string]string, error) {
	data, err := os.ReadFile(referencePath(root))
	if errors.Is(err, fs.ErrNotExist) {
		return map[string]map[string]string{}, nil
	}
	if err != nil {
		return nil, err
	}
	ref := map[string]map[string]string{}
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// updateReference runs one untraced pass of w at the reference seed and
// records its digests as the workload's reference.
func updateReference(ctx context.Context, w *workload, o *options) error {
	if !o.checkReference() || w.refName != w.name {
		return fmt.Errorf("%s: references are recorded at seed %d, for workloads with their own section", w.name, referenceSeed)
	}
	s, err := runPass(ctx, w, o, nil, false, true)
	if err != nil {
		return err
	}
	if s.out.failed > 0 {
		return fmt.Errorf("%s: %d failed ops: %v", w.name, s.out.failed, s.out.problems)
	}
	ref, err := loadReference(o.root)
	if err != nil {
		return err
	}
	ref[w.name] = map[string]string{}
	for _, k := range w.refKeys {
		ref[w.name][k] = s.out.digests[k]
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath(o.root), append(data, '\n'), 0o644)
}
