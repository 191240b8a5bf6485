package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"sdds/internal/cluster"
	"sdds/internal/compiler"
	"sdds/internal/core"
	"sdds/internal/fault"
	"sdds/internal/harness"
	"sdds/internal/loop"
	"sdds/internal/polyhedral"
	"sdds/internal/power"
	"sdds/internal/workloads"
)

// goldenDirect is the paper's unit of work: the 24 golden configurations
// (6 apps × {default, history-based} × {scheduling off, on}) at 5% scale,
// run one after another through cluster.RunPrepared with inline compiles.
// At the reference seed every run must reproduce golden.json bit for bit.
func goldenDirect() *workload {
	return &workload{
		name:   "golden-direct",
		inputs: func(o *options) ([]string, float64) { return workloads.Names(), o.scale(0.05) },
		setup: func(ctx context.Context, o *options) (instance, error) {
			var golden map[string][]string
			if o.checkReference() {
				var err error
				if golden, err = loadGolden(o.root); err != nil {
					return nil, err
				}
			}
			return newDirectPass(o.seed, o.scale(0.05), []power.Kind{power.KindDefault, power.KindHistory},
				[]bool{false, true}, "", golden)
		},
	}
}

// simStressFaults is sim-stress's fault spec; the seed is appended.
const simStressFaults = "read=0.01,write=0.01,net-drop=0.005,stall=0.01"

// simStressScale keeps a pass near 2.5 s, so a window holds well over the
// hundred runs a 90th percentile needs, while every app's working set
// still overflows the storage caches (madbench2 hits well under 5%).
const simStressScale = 0.15

// simStress runs every app under the simple, staggered and history-based
// policies with scheduling off, at a scale whose working set overflows the
// storage caches; the history-based runs inject faults. The compiler, the
// compile cache and the runtime scheduler do no work here.
func simStress() *workload {
	return &workload{
		name:    "sim-stress",
		inputs:  func(o *options) ([]string, float64) { return workloads.Names(), o.scale(simStressScale) },
		refName: "sim-stress",
		refKeys: []string{"records"},
		setup: func(ctx context.Context, o *options) (instance, error) {
			faults := fmt.Sprintf("%s,seed=%d", simStressFaults, o.seed)
			return newDirectPass(o.seed, o.scale(simStressScale), []power.Kind{power.KindSimple, power.KindStaggered, power.KindHistory},
				[]bool{false}, faults, nil)
		},
	}
}

// directRun is one configuration run straight through cluster.RunPrepared.
type directRun struct {
	req    harness.Request
	key    string
	setup  *cluster.Setup
	cfg    cluster.Config
	golden []string // expected fingerprint; nil when unchecked
}

// directPass runs its configurations one at a time on the calling goroutine.
type directPass struct{ runs []directRun }

// newDirectPass builds every app's program and setup at scale, then one run
// per (app, policy, scheduling). faults applies to history-based runs.
func newDirectPass(seed int64, scale float64, kinds []power.Kind, scheduling []bool, faults string, golden map[string][]string) (*directPass, error) {
	fc, err := fault.ParseSpec(faults)
	if err != nil {
		return nil, err
	}
	p := &directPass{}
	for _, spec := range workloads.All() {
		cfg := cluster.DefaultConfig()
		setup, err := cluster.NewSetup(spec.Build(scale), cfg.Procs)
		if err != nil {
			return nil, err
		}
		for _, kind := range kinds {
			for _, sched := range scheduling {
				r := directRun{setup: setup, cfg: cfg}
				r.cfg.Seed = seed
				r.cfg.Policy = power.Config{Kind: kind}
				r.cfg.Scheduling = sched
				raw := harness.Request{App: spec.Name, Policy: kind.String(), Scheduling: sched, Scale: scale, Seed: seed}
				if kind == power.KindHistory && fc != nil {
					r.cfg.Faults, raw.Faults = fc, faults
				}
				if r.req, err = raw.Normalize(); err != nil {
					return nil, err
				}
				r.key = r.req.ContentKey()
				if golden != nil {
					fk := cluster.FingerprintKey(spec.Name, kind, sched)
					if r.golden = golden[fk]; r.golden == nil {
						return nil, fmt.Errorf("golden.json has no %s", fk)
					}
				}
				p.runs = append(p.runs, r)
			}
		}
	}
	return p, nil
}

func (p *directPass) close() error { return nil }

// pass runs every configuration. Traced, a scheduled run compiles in its
// own span, re-runs slack analysis and scheduling as duplicate spans to
// measure the compiler's parts, then simulates with that compile handed in.
func (p *directPass) pass(ctx context.Context, tr *tracer) (*passOut, error) {
	out := newPassOut()
	root := tr.begin("bench.pass", -1, 0, "")
	for _, r := range p.runs {
		out.ops++
		run := tr.begin("bench.run", root, 0, r.key)
		cfg := r.cfg
		if tr != nil && cfg.Scheduling {
			comp, err := tracedCompile(ctx, tr, run, r, out)
			if err != nil {
				return nil, err
			}
			cfg.CompileCache = resolvedCompile{comp}
		}
		sim := tr.begin("cluster.simulate", run, 0, r.key)
		t0 := time.Now()
		res, err := cluster.RunPrepared(ctx, r.setup, cfg)
		elapsed := time.Since(t0)
		tr.end(sim)
		tr.end(run)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.req.Key(), err)
		}
		out.runs = append(out.runs, elapsed)
		if cfg.Scheduling {
			out.layers["compiler.compiles"]++
		}
		if r.golden != nil && !slices.Equal(cluster.Fingerprint(res), r.golden) {
			out.fail("%s: fingerprint differs from golden.json", r.req.Key())
		}
		out.entries = append(out.entries, entry{r.req, harness.NewRunRecord(res)})
	}
	tr.end(root)
	return out, nil
}

// tracedCompile compiles r's program in a compiler.compile span, then
// repeats its two phases, polyhedral.Analyze and core.Scheduler.Schedule,
// as spans marked duplicates of it, and checks the repeat reproduces every
// scheduling point.
func tracedCompile(ctx context.Context, tr *tracer, parent int, r directRun, out *passOut) (*compiler.Result, error) {
	opts := r.cfg.Compiler
	opts.Procs, opts.Layout = r.cfg.Procs, r.cfg.Layout
	prog := r.setup.Program()
	c := tr.begin("compiler.compile", parent, 0, r.key)
	comp, err := compiler.CompileContext(ctx, prog, opts)
	tr.end(c)
	if err != nil {
		return nil, err
	}
	a := tr.beginDup("polyhedral.analyze", parent, c, 0, r.key)
	_, err = polyhedral.Analyze(prog, opts.Procs)
	tr.end(a)
	if err != nil {
		return nil, err
	}
	s := tr.beginDup("core.schedule", parent, c, 0, r.key)
	sched, err := reschedule(prog, opts, comp.Accesses)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	for id := range comp.Accesses {
		want, wok := comp.Schedule.PointOf(id)
		got, gok := sched.PointOf(id)
		if want != got || wok != gok {
			out.fail("%s: rescheduling moved access %d from slot %d to %d", r.req.Key(), id, want, got)
			break
		}
	}
	return comp, nil
}

// reschedule runs the §IV scheduler on a compile's accesses with the
// parameters the compiler derives from opts (no coalescing).
func reschedule(prog *loop.Program, opts compiler.Options, accesses []*core.Access) (*core.Schedule, error) {
	s, err := core.NewScheduler(core.Params{
		NumSlots: prog.Slots(opts.Procs),
		NumNodes: opts.Layout.NumNodes,
		Delta:    opts.Delta,
		Theta:    opts.Theta,
	})
	if err != nil {
		return nil, err
	}
	return s.Schedule(accesses)
}

// resolvedCompile is a cluster.CompileService returning a compile the
// traced pass already ran, so the simulate span excludes the compiler.
type resolvedCompile struct{ comp *compiler.Result }

func (r resolvedCompile) CompileContext(context.Context, *loop.Program, compiler.Options) (*compiler.Result, compiler.Provenance, error) {
	return r.comp, compiler.ProvCompiled, nil
}

// loadGolden reads the committed golden fingerprints.
func loadGolden(root string) (map[string][]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "internal", "cluster", "testdata", "golden.json"))
	if err != nil {
		return nil, err
	}
	var golden map[string][]string
	if err := json.Unmarshal(data, &golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return golden, nil
}
