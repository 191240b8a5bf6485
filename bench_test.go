// Package sdds_bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks. Each benchmark runs the corresponding
// harness experiment at a reduced workload scale (the full-scale numbers
// are produced by cmd/sddstables and recorded in EXPERIMENTS.md) and
// reports the headline shape metrics via b.ReportMetric, so
// `go test -bench=. -benchmem` prints the reproduced series alongside the
// timing.
package sdds_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sdds/internal/cluster"
	"sdds/internal/compilecache"
	"sdds/internal/harness"
	"sdds/internal/power"
	"sdds/internal/workloads"
)

// benchScale keeps each benchmark iteration around a second of wall time.
const benchScale = 0.1

// benchApps is the subset used by per-figure benchmarks to bound runtime;
// it pairs a short-idle application with a long-phase one.
var benchApps = []string{"sar", "madbench2"}

func benchConfig() harness.Config {
	return harness.Config{Scale: benchScale, Apps: benchApps, Seed: 1}
}

// pct parses the "12.3%" cells the harness renders.
func pct(s string) float64 {
	f, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0
	}
	return f
}

// runExperiment regenerates one experiment b.N times, each on a fresh
// session, so every iteration simulates its whole run plan.
func runExperiment(b *testing.B, id string, cfg harness.Config, report func(*testing.B, *harness.Result)) {
	b.Helper()
	exp, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := harness.NewSession(harness.SessionOptions{}).Run(context.Background(), exp, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && report != nil {
			report(b, res)
		}
	}
}

// sarConfig narrows the bench config to one app for the sweep benchmarks.
func sarConfig() harness.Config {
	cfg := benchConfig()
	cfg.Apps = []string{"sar"}
	return cfg
}

// BenchmarkTable3 regenerates the per-application baseline (execution time
// and disk energy under the Default Scheme).
func BenchmarkTable3(b *testing.B) {
	runExperiment(b, "table3", benchConfig(), func(b *testing.B, res *harness.Result) {
		for _, row := range res.Rows {
			if v, err := strconv.ParseFloat(row[3], 64); err == nil {
				b.ReportMetric(v, row[0]+"_J")
			}
		}
	})
}

// BenchmarkFig12a regenerates the idle-period CDF without the scheme and
// reports the fraction of gaps at most 100 ms (paper average: 86.4%).
func BenchmarkFig12a(b *testing.B) {
	runExperiment(b, "fig12a", benchConfig(), func(b *testing.B, res *harness.Result) {
		for _, row := range res.Rows {
			if row[0] == "100" {
				b.ReportMetric(pct(row[1]), "pct_le100ms_"+res.Headers[1])
			}
		}
	})
}

// BenchmarkFig12b regenerates the idle-period CDF with the scheme (the CDF
// must shift right relative to Fig. 12(a)).
func BenchmarkFig12b(b *testing.B) {
	runExperiment(b, "fig12b", benchConfig(), func(b *testing.B, res *harness.Result) {
		for _, row := range res.Rows {
			if row[0] == "100" {
				b.ReportMetric(pct(row[1]), "pct_le100ms_"+res.Headers[1])
			}
		}
	})
}

// BenchmarkFig12c regenerates normalized energy per policy without the
// scheme (paper averages: simple 95.3%, prediction 93.7%, history 84.4%,
// staggered 90.2%).
func BenchmarkFig12c(b *testing.B) {
	runExperiment(b, "fig12c", benchConfig(), func(b *testing.B, res *harness.Result) {
		for _, row := range res.Rows {
			for ci := 1; ci < len(row); ci++ {
				b.ReportMetric(pct(row[ci]), row[0]+"_"+res.Headers[ci])
			}
		}
	})
}

// BenchmarkFig12d regenerates normalized energy per policy with the scheme
// (savings should roughly double Fig. 12(c)'s).
func BenchmarkFig12d(b *testing.B) {
	runExperiment(b, "fig12d", benchConfig(), func(b *testing.B, res *harness.Result) {
		for _, row := range res.Rows {
			for ci := 1; ci < len(row); ci++ {
				b.ReportMetric(pct(row[ci]), row[0]+"_"+res.Headers[ci])
			}
		}
	})
}

// BenchmarkFig13a regenerates performance degradation without the scheme.
func BenchmarkFig13a(b *testing.B) { runExperiment(b, "fig13a", benchConfig(), nil) }

// BenchmarkFig13b regenerates performance degradation with the scheme.
func BenchmarkFig13b(b *testing.B) { runExperiment(b, "fig13b", benchConfig(), nil) }

// BenchmarkFig13c regenerates the I/O-node-count sweep.
func BenchmarkFig13c(b *testing.B) { runExperiment(b, "fig13c", sarConfig(), nil) }

// BenchmarkFig13d regenerates the δ sweep (interior maximum around δ=20).
func BenchmarkFig13d(b *testing.B) { runExperiment(b, "fig13d", sarConfig(), nil) }

// BenchmarkFig14a regenerates the θ energy sweep (savings grow with θ).
func BenchmarkFig14a(b *testing.B) { runExperiment(b, "fig14a", sarConfig(), nil) }

// BenchmarkFig14b regenerates the θ performance sweep.
func BenchmarkFig14b(b *testing.B) { runExperiment(b, "fig14b", sarConfig(), nil) }

// BenchmarkCacheSens regenerates the §V-D storage-cache sensitivity.
func BenchmarkCacheSens(b *testing.B) { runExperiment(b, "cachesens", sarConfig(), nil) }

// BenchmarkCompileTime measures the scheduling pass itself (the paper
// reports ~1.4 s worst case on Phoenix).
func BenchmarkCompileTime(b *testing.B) {
	runExperiment(b, "compile", benchConfig(), nil)
}

// BenchmarkAblations runs the scheduler design ablations (ordering, σ
// weights, vertical reuse range).
func BenchmarkAblations(b *testing.B) { runExperiment(b, "ablations", sarConfig(), nil) }

// sessionBenchIDs is the sddstables-equivalent batch the worker-scaling
// benchmarks regenerate: the four policy figures, 18 distinct cluster
// configurations over the two bench apps.
var sessionBenchIDs = []string{"fig12c", "fig12d", "fig13a", "fig13b"}

// sessionBenchRef pins the first rendered output of the batch; every later
// iteration — any worker count — must match it byte for byte, so the
// speedup benchmarks double as a parallel-determinism check.
var sessionBenchRef struct {
	sync.Mutex
	out string
}

// benchmarkSessionWorkers regenerates the batch on a fresh session per
// iteration (nothing cached across iterations) with the given worker
// bound. Comparing the workers=1 and workers=4 timings measures how the
// parallel experiment engine scales; the paper tables themselves are
// asserted identical across worker counts.
func benchmarkSessionWorkers(b *testing.B, workers int) {
	exps := make([]harness.Experiment, 0, len(sessionBenchIDs))
	for _, id := range sessionBenchIDs {
		e, err := harness.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		exps = append(exps, e)
	}
	cfg := harness.Config{Scale: benchScale, Apps: benchApps, Seed: 1}
	for i := 0; i < b.N; i++ {
		s := harness.NewSession(harness.SessionOptions{Workers: workers})
		results, err := s.RunAll(context.Background(), exps, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var out strings.Builder
		for _, r := range results {
			out.WriteString(r.Render())
		}
		sessionBenchRef.Lock()
		if sessionBenchRef.out == "" {
			sessionBenchRef.out = out.String()
		} else if out.String() != sessionBenchRef.out {
			sessionBenchRef.Unlock()
			b.Fatalf("workers=%d produced different tables than the reference run", workers)
		}
		sessionBenchRef.Unlock()
		if i == b.N-1 {
			simulated, _ := s.Stats()
			b.ReportMetric(float64(simulated), "distinct_runs")
		}
	}
}

// BenchmarkSessionWorkers1 is the serial baseline of the batch.
func BenchmarkSessionWorkers1(b *testing.B) { benchmarkSessionWorkers(b, 1) }

// BenchmarkSessionWorkers4 is the same batch fanned out over four workers
// (expected ≥2× faster than BenchmarkSessionWorkers1 on ≥4 cores).
func BenchmarkSessionWorkers4(b *testing.B) { benchmarkSessionWorkers(b, 4) }

// thetaSweepScale sizes the sweep benchmarks: at 0.15 the hf compile pass
// is a large fraction of each scheduled run's wall time, which is the
// regime the compile cache targets.
const thetaSweepScale = 0.15

// thetaSweepRequests is a θ×policy sweep over hf: four θ values sharing
// their compile artifact across two power policies each — eight scheduled
// runs, four distinct compile keys.
func thetaSweepRequests() []harness.Request {
	var reqs []harness.Request
	for _, theta := range []int{2, 4, 8, 16} {
		for _, policy := range []string{"default", "history"} {
			reqs = append(reqs, harness.Request{
				App: "hf", Policy: policy, Scheduling: true,
				Scale: thetaSweepScale, Seed: 1,
				Variant: fmt.Sprintf("theta=%d", theta),
			})
		}
	}
	return reqs
}

// runThetaSweep resolves the sweep on a fresh session (nothing memoized
// across iterations except what opts carries in).
func runThetaSweep(b *testing.B, opts harness.SessionOptions) {
	b.Helper()
	opts.Workers = 1
	s := harness.NewSession(opts)
	for _, req := range thetaSweepRequests() {
		if _, _, err := s.RunRequest(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThetaSweepCold is the inline-compile baseline: every scheduled
// run of every iteration recompiles.
func BenchmarkThetaSweepCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runThetaSweep(b, harness.SessionOptions{DisableCompileCache: true})
	}
}

// BenchmarkThetaSweepWarm is the same sweep against a warmed shared
// compile cache: simulations re-run, compiles are all memo hits. The
// warm/cold ns/op ratio is the sweep-throughput gain the cache buys.
func BenchmarkThetaSweepWarm(b *testing.B) {
	cache := compilecache.New()
	runThetaSweep(b, harness.SessionOptions{CompileCache: cache}) // warm untimed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runThetaSweep(b, harness.SessionOptions{CompileCache: cache})
	}
}

// BenchmarkEndToEndScheduledRun measures one full scheduled cluster run
// (compile + execute) — the system's overall throughput.
func BenchmarkEndToEndScheduledRun(b *testing.B) {
	spec, err := workloads.ByName("madbench2")
	if err != nil {
		b.Fatal(err)
	}
	prog := spec.Build(benchScale)
	for i := 0; i < b.N; i++ {
		cfg := cluster.DefaultConfig()
		cfg.Scheduling = true
		cfg.Policy = power.Config{Kind: power.KindHistory}
		res, err := cluster.Run(prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.EnergyJ, "virtual_J")
			b.ReportMetric(res.ExecTime.Seconds(), "virtual_s")
		}
	}
}
