package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sdds/internal/harness"
	"sdds/internal/probe"
)

// referenceSeed is the seed golden.json and reference.json were recorded at.
const referenceSeed = 42

// setupsPerPass is how many set-ups each pass times; all but the last are
// closed unused. Each starts on a freshly collected heap, and the run's
// first is dropped, so the millisecond-scale samples measure the set-up
// itself rather than the process start or the last pass's garbage.
const setupsPerPass = 3

// options configures one workload invocation.
type options struct {
	root    string // checkout root: BENCHMARK.json, golden.json, reference.json
	work    string // scratch directory for stores, journals and traces
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every input and runs one pass per mode; the package
	// test uses it to exercise all workloads in seconds.
	tiny bool
}

// checkReference reports whether outputs can be checked against the
// recorded references (golden.json, reference.json).
func (o *options) checkReference() bool { return o.seed == referenceSeed && !o.tiny }

// scale picks the full-size or tiny input scale.
func (o *options) scale(full float64) float64 {
	if o.tiny {
		return 0.02
	}
	return full
}

// entry is one simulated run: its canonical request and portable result.
type entry struct {
	req harness.Request
	rec harness.RunRecord
}

// passOut is what one pass of a workload reports.
type passOut struct {
	ops    int
	failed int
	// problems describes each failed op, for the stderr report.
	problems []string
	// runs is the host latency of every simulated run the pass executed.
	runs []time.Duration
	// entries are the pass's simulation results.
	entries []entry
	// digests fingerprint the outputs; every pass must repeat the first
	// pass's, and at the reference seed they must match reference.json.
	digests map[string]string
	// layers holds this pass's workload-specific per-layer values.
	layers map[string]float64
}

func newPassOut() *passOut {
	return &passOut{digests: map[string]string{}, layers: map[string]float64{}}
}

func (p *passOut) fail(format string, args ...any) {
	p.failed++
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// instance is one pass's worth of set-up state.
type instance interface {
	// pass runs the workload's fixed batch once; tr is nil when untraced.
	pass(ctx context.Context, tr *tracer) (*passOut, error)
	close() error
}

// workload is one benchmark input set.
type workload struct {
	name string
	// setup builds everything one pass needs; each pass times it
	// setupsPerPass times for setup_s.
	setup func(ctx context.Context, o *options) (instance, error)
	// inputs names the applications and scale the workload builds, for the
	// set-up probe.
	inputs func(o *options) ([]string, float64)
	// refName is the reference.json section the outputs must match at the
	// reference seed ("" = none), and refKeys the digests compared.
	refName string
	refKeys []string
	// crossCheck, when set, computes the expected digests another way; it
	// stands in for the reference off the reference seed.
	crossCheck func(ctx context.Context, o *options) (map[string]string, error)
}

func workloadByName(name string) (*workload, error) {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func allWorkloads() []*workload {
	return []*workload{goldenDirect(), simStress(), sweep5pct(), serviceSharded()}
}

// sample is one measured pass.
type sample struct {
	traced       bool
	setups       []time.Duration // all but the run's first
	wall         time.Duration
	cpu          float64 // user+system seconds
	allocBytes   float64
	allocObjects float64
	out          *passOut
	spans        []span
	spanBase     int
}

// result is one invocation's outcome, as appended to the results file.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	NProc     int                `json:"nproc"`
	Revision  string             `json:"revision"`
	Passes    int                `json:"passes"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Timings   map[string]timing  `json:"timings"`
	Problems  []string           `json:"problems,omitempty"`
}

// runWorkload runs passes of w until the window closes, checks every
// output, and assembles the metrics of the requested mode.
func runWorkload(ctx context.Context, spec *benchSpec, w *workload, o *options) (*result, error) {
	res := &result{Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		NProc: runtime.NumCPU(), Revision: revision(), Metrics: map[string]float64{}, Timings: map[string]timing{}}
	want, err := expectedDigests(ctx, w, o)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var samples []sample
	start := time.Now()
	var last time.Duration
	for i := 0; o.more(i, time.Since(start), last); i++ {
		iter := time.Now()
		traced := o.trace && i%2 == 1
		s, err := runPass(ctx, w, o, tr, traced, i == 0)
		if err != nil {
			return nil, err
		}
		if want == nil {
			want = s.out.digests // later passes must repeat the first
		}
		for k, v := range want {
			if s.out.digests[k] != v {
				s.out.fail("%s digest %.12s differs from expected %.12s", k, s.out.digests[k], v)
				s.out.failed = s.out.ops
			}
		}
		res.Attempted += s.out.ops
		res.Failed += s.out.failed
		res.Problems = append(res.Problems, s.out.problems...)
		samples = append(samples, s)
		last = time.Since(iter)
	}
	res.Passes = len(samples)
	res.Correct = res.Failed == 0
	if o.trace {
		err = layerMetrics(ctx, w, o, tr, samples, res)
	} else {
		endToEndMetrics(samples, res)
	}
	if err != nil {
		return nil, err
	}
	if err := spec.checkEmitted(res.Metrics, o.trace); err != nil {
		return nil, err
	}
	return res, nil
}

// more decides whether to start pass i: always the first pass of each
// mode, then only while another pass like the last fits in the window.
// Tiny runs make exactly one pass per mode.
func (o *options) more(i int, elapsed, last time.Duration) bool {
	min := 1
	if o.trace {
		min = 2
	}
	if i < min {
		return true
	}
	if o.tiny {
		return false
	}
	return (elapsed + last).Seconds() <= o.seconds
}

// expectedDigests returns the digests every pass must produce: the
// recorded reference at the reference seed, a cross-check elsewhere when
// the workload has one, else nil (passes must then agree with each other).
func expectedDigests(ctx context.Context, w *workload, o *options) (map[string]string, error) {
	if o.checkReference() && w.refName != "" {
		ref, err := loadReference(o.root)
		if err != nil {
			return nil, err
		}
		want := map[string]string{}
		for _, k := range w.refKeys {
			d, ok := ref[w.refName][k]
			if !ok {
				return nil, fmt.Errorf("reference.json has no %s %s digest (regenerate with -update-reference)", w.refName, k)
			}
			want[k] = d
		}
		return want, nil
	}
	if w.crossCheck != nil {
		return w.crossCheck(ctx, o)
	}
	return nil, nil
}

// runPass times set-up, runs one pass on the last instance set up and
// tears it down, timing wall, CPU and heap allocation of the pass alone.
// The run's first set-up pays for paging code in and is not kept.
func runPass(ctx context.Context, w *workload, o *options, tr *tracer, traced, first bool) (sample, error) {
	s := sample{traced: traced}
	var inst instance
	for i := 0; i < setupsPerPass; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return s, fmt.Errorf("%s teardown: %w", w.name, err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(ctx, o); err != nil {
			return s, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		if !first || i > 0 {
			s.setups = append(s.setups, time.Since(t0))
		}
	}
	runtime.GC()
	if !traced {
		tr = nil
	}
	s.spanBase = tr.mark()
	cpu0 := cpuSeconds()
	bytes0, objects0 := heapAllocs()
	p0 := time.Now()
	out, err := inst.pass(ctx, tr)
	s.wall = time.Since(p0)
	s.cpu = cpuSeconds() - cpu0
	bytes1, objects1 := heapAllocs()
	s.allocBytes, s.allocObjects = bytes1-bytes0, objects1-objects0
	if cerr := inst.close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s teardown: %w", w.name, cerr)
	}
	if err != nil {
		return s, err
	}
	s.spans = tr.since(s.spanBase)
	digest, err := recordsDigest(out.entries)
	if err != nil {
		return s, err
	}
	out.digests["records"] = digest
	s.out = out
	return s, nil
}

// endToEndMetrics reports what a user pays for a pass in set-up, heap
// allocation and memory: the costs this benchmark measures repeatably.
// Pass and run times vary by a fifth or more between runs on a shared
// host, so they are per-layer metrics (see passTimes).
func endToEndMetrics(samples []sample, res *result) {
	var setups, gb, mobj []float64
	for _, s := range samples {
		for _, d := range s.setups {
			setups = append(setups, d.Seconds())
		}
		gb = append(gb, s.allocBytes/1e9)
		mobj = append(mobj, s.allocObjects/1e6)
	}
	m := res.Metrics
	m["setup_s"] = median(setups)
	m["alloc_gb"] = median(gb)
	m["alloc_objects_m"] = median(mobj)
	m["peak_rss_mb"] = peakRSSMB()
	res.Timings["setup_s"] = summarize(setups)
	res.Timings["alloc_gb"] = summarize(gb)
	res.Timings["alloc_objects_m"] = summarize(mobj)
	passTimes(samples, res)
}

// passTimes reports the untraced passes' makespan and CPU time (medians)
// and the host latency of their simulated runs (pooled percentiles).
func passTimes(samples []sample, res *result) {
	var walls, cpus, lat []float64
	for _, s := range samples {
		if s.traced {
			continue
		}
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu)
		for _, d := range s.out.runs {
			lat = append(lat, ms(d))
		}
	}
	res.Timings["wall_s"] = summarize(walls)
	res.Timings["cpu_s"] = summarize(cpus)
	res.Timings["run_ms"] = summarize(lat)
	if res.Trace {
		m := res.Metrics
		m["pass.wall_s"] = median(walls)
		m["pass.cpu_s"] = median(cpus)
		m["pass.run_p50_ms"] = percentile(lat, 50)
		m["pass.run_p90_ms"] = percentile(lat, 90)
	}
}

// selfFracs maps span names whose self time is a per-layer share.
var selfFracs = map[string]string{
	"compiler.compile":   "compiler.self_frac",
	"polyhedral.analyze": "polyhedral.analyze_frac",
	"core.schedule":      "core.schedule_frac",
	"cluster.simulate":   "cluster.simulate_frac",
}

// layerMetrics assembles the per-layer metrics of a traced invocation:
// medians over traced passes of the workload's own layer values, the
// self-time shares of its spans, model counts, run-derived simulator costs
// from the untraced passes, the tracing overhead, and the layer replays.
func layerMetrics(ctx context.Context, w *workload, o *options, tr *tracer, samples []sample, res *result) error {
	vals := map[string][]float64{}
	var traced, untraced []float64
	var last []entry
	for _, s := range samples {
		if !s.traced {
			untraced = append(untraced, s.wall.Seconds())
			ns, simPerHost := runCosts(s.out)
			vals["cluster.ns_per_disk_request"] = append(vals["cluster.ns_per_disk_request"], ns)
			vals["cluster.sim_s_per_host_s"] = append(vals["cluster.sim_s_per_host_s"], simPerHost)
			vals["cluster.allocs_per_run"] = append(vals["cluster.allocs_per_run"], ratio(s.allocObjects, float64(len(s.out.runs))))
			continue
		}
		var dup time.Duration
		for _, sp := range s.spans {
			if sp.DupOf >= 0 {
				dup += sp.dur()
			}
		}
		traced = append(traced, (s.wall - dup).Seconds())
		self := selfTimes(s.spans, s.spanBase)
		var total time.Duration
		for _, d := range self {
			total += d
		}
		for name, metric := range selfFracs {
			vals[metric] = append(vals[metric], ratio(float64(self[name]), float64(total)))
		}
		for k, v := range s.out.layers {
			vals[k] = append(vals[k], v)
		}
		for k, v := range modelCounts(s.out.entries) {
			vals[k] = append(vals[k], v)
		}
		last = s.out.entries
	}
	for k, v := range vals {
		res.Metrics[k] = median(v)
	}
	res.Metrics["bench.trace_overhead_frac"] = ratio(median(traced)-median(untraced), median(untraced))
	res.Timings["traced_pass_s"] = summarize(traced)
	passTimes(samples, res)

	replays, timings, err := replayMetrics(ctx, w, o, last)
	if err != nil {
		return err
	}
	for k, v := range replays {
		res.Metrics[k] = v
	}
	for k, v := range timings {
		res.Timings[k] = v
	}
	return writeTrace(tr, o, w.name, res)
}

// writeTrace exports the run's spans as a Chrome trace under the scratch
// directory and validates the bytes; an invalid trace fails the run.
func writeTrace(tr *tracer, o *options, name string, res *result) error {
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf, "sddsbench "+name); err != nil {
		return err
	}
	path := filepath.Join(o.work, fmt.Sprintf("trace-%s-%d.json", name, o.seed))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	problems, _, err := probe.CheckChromeTrace(buf.Bytes())
	if err != nil {
		return err
	}
	if len(problems) > 0 {
		res.Correct = false
		res.Failed++
		res.Problems = append(res.Problems, problems...)
	}
	return nil
}

// runCosts derives simulator costs from one pass's runs: host nanoseconds
// per simulated disk request and simulated seconds per host second.
func runCosts(out *passOut) (nsPerRequest, simPerHost float64) {
	var host time.Duration
	for _, d := range out.runs {
		host += d
	}
	var requests, simUS float64
	for _, e := range out.entries {
		requests += float64(e.rec.DiskRequests)
		simUS += float64(e.rec.ExecTimeUS)
	}
	return ratio(float64(host.Nanoseconds()), requests), ratio(simUS/1e6, host.Seconds())
}

// modelCounts sums the simulated-model statistics of a pass's runs. They
// are deterministic: a change meant only to speed the simulator up must
// leave every one identical.
func modelCounts(es []entry) map[string]float64 {
	c := map[string]float64{}
	var hits, misses, bufHits float64
	for _, e := range es {
		r := e.rec
		c["disk.requests"] += float64(r.DiskRequests)
		c["disk.spin_ups"] += float64(r.SpinUps)
		c["disk.rpm_shifts"] += float64(r.RPMShifts)
		c["ionode.prefetches"] += float64(r.PrefetchIssued)
		c["sched.prefetches_issued"] += float64(r.AgentIssued)
		c["sched.blocked"] += float64(r.AgentBlocked)
		c["sched.deferred"] += float64(r.AgentDeferred)
		hits += float64(r.StorageCacheHits)
		misses += float64(r.StorageCacheMisses)
		bufHits += float64(r.BufferHits)
		for _, m := range r.Metrics {
			switch m.Name {
			case "power.wrong_predictions", "power.pre_activations":
				c[m.Name] += m.Value
			case "disk.queue_high_water":
				c[m.Name] = math.Max(c[m.Name], m.Value)
			}
		}
		if f := r.Faults; f != nil {
			c["fault.injected"] += float64(f.Total())
			c["fault.retries"] += float64(f.NodeRetries + f.MWRetries + f.IORetries)
			c["fault.abandoned"] += float64(f.IOAbandoned)
		}
	}
	c["ionode.cache_hit_ratio"] = ratio(hits, hits+misses)
	c["sched.prefetch_useful_ratio"] = ratio(bufHits, c["sched.prefetches_issued"])
	return c
}

// recordsDigest fingerprints a pass's results: the SHA-256 of every
// (content key, record JSON) pair in content-key order, so runs executed in
// any order or on any route digest equally.
func recordsDigest(es []entry) (string, error) {
	type keyed struct {
		key string
		rec []byte
	}
	rows := make([]keyed, 0, len(es))
	for _, e := range es {
		b, err := json.Marshal(e.rec)
		if err != nil {
			return "", err
		}
		rows = append(rows, keyed{e.req.ContentKey(), b})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r.key + "\n"))
		h.Write(r.rec)
		h.Write([]byte("\n"))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapAllocs reads the cumulative heap allocation counters.
func heapAllocs() (bytes, objects float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// revision is the VCS revision the binary was built from, when known.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+modified"
			}
		}
	}
	return rev + modified
}
