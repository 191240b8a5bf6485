// Package harness regenerates every table and figure of the paper's
// evaluation (§V): the Table III application baseline, the idle-period CDFs
// of Fig. 12(a)/(b), the normalized-energy bars of Fig. 12(c)/(d), the
// performance-degradation bars of Fig. 13(a)/(b), and the sensitivity
// sweeps of Fig. 13(c)/(d), Fig. 14(a)/(b) and the storage-cache paragraph
// of §V-D. Each experiment is a named, self-contained artifact shared by
// cmd/sddstables and the benchmark harness in bench_test.go.
//
// Execution goes through a Session, the one way to run an experiment
// (NewSession(...).Run): the session derives the complete set of distinct
// cluster configurations an experiment batch needs (its run plan), fans
// the simulations out over a bounded worker pool, and caches every result
// so overlapping experiments never simulate the same configuration twice.
package harness

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"sdds/internal/cluster"
	"sdds/internal/fault"
	"sdds/internal/metrics"
	"sdds/internal/power"
	"sdds/internal/strutil"
	"sdds/internal/workloads"
)

// Config scopes a harness run.
type Config struct {
	// Scale multiplies workload trip counts (1.0 = full evaluation size;
	// benchmarks use smaller scales).
	Scale float64
	// Apps restricts the applications (nil = all six).
	Apps []string
	// Seed feeds the cluster simulations.
	Seed int64
	// Faults, when non-nil, attaches the deterministic fault injector to
	// every cluster run. The canonical spec is part of the run cache key,
	// so fault-free and injected runs never alias.
	Faults *fault.Config
}

// DefaultConfig runs everything at full scale.
func DefaultConfig() Config { return Config{Scale: 1.0, Seed: 1} }

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Apps) == 0 {
		c.Apps = workloads.Names()
	}
	return c
}

// Validate reports the first problem with the config (unknown application
// names, with suggestions), or nil. The zero value is valid (defaults
// apply).
func (c Config) Validate() error {
	if err := checkScale(c.Scale); err != nil {
		return err
	}
	for _, app := range c.Apps {
		if _, err := workloads.ByName(app); err != nil {
			return err
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// checkScale rejects a scale that cannot size a workload: a negative one,
// or a NaN or infinite one, which would silently run the minimum-size
// program and, as a NaN map key, never hit the session or setup cache.
// Zero is left to the caller, which reads it as "the default".
func checkScale(scale float64) error {
	if scale < 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return fmt.Errorf("harness: scale %v must be a positive finite number", scale)
	}
	return nil
}

// Result of one experiment: a title, column headers and rows, pre-rendered
// by Render.
type Result struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	// Notes carries shape observations (e.g. averages) printed after the
	// table.
	Notes []string
	// Chart, when non-nil, renders the result as the paper's bar figure.
	Chart *metrics.BarChart
}

// Render returns the printable experiment output.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	b.WriteString(metrics.Table(r.Headers, r.Rows))
	if r.Chart != nil {
		b.WriteByte('\n')
		b.WriteString(r.Chart.Render())
	}
	for _, n := range r.Notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is a runnable paper artifact, executed by Session.Run. Its
// run function renders the result from a Session's cache; its plan
// function enumerates the canonical Requests the run needs, letting the
// session execute them in parallel before rendering.
type Experiment struct {
	ID    string
	Title string
	run   func(ctx context.Context, s *Session, c Config) (*Result, error)
	plan  func(c Config) []Request
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table2", Title: "Table II: main experimental parameters", run: table2},
		{ID: "table3", Title: "Table III: application programs (Default Scheme baseline)", run: table3, plan: planBaselines},
		{ID: "fig12a", Title: "Fig. 12(a): CDF of idle periods without the scheme", run: fig12a, plan: planCDF(false)},
		{ID: "fig12b", Title: "Fig. 12(b): CDF of idle periods with the scheme", run: fig12b, plan: planCDF(true)},
		{ID: "fig12c", Title: "Fig. 12(c): normalized energy without the scheme", run: fig12c, plan: planPolicies(false)},
		{ID: "fig12d", Title: "Fig. 12(d): normalized energy with the scheme", run: fig12d, plan: planPolicies(true)},
		{ID: "fig13a", Title: "Fig. 13(a): performance degradation without the scheme", run: fig13a, plan: planPolicies(false)},
		{ID: "fig13b", Title: "Fig. 13(b): performance degradation with the scheme", run: fig13b, plan: planPolicies(true)},
		{ID: "fig13c", Title: "Fig. 13(c): energy reduction vs number of I/O nodes", run: fig13cDef.run, plan: fig13cDef.plan},
		{ID: "fig13d", Title: "Fig. 13(d): energy reduction vs delta", run: fig13dDef.run, plan: fig13dDef.plan},
		{ID: "fig14a", Title: "Fig. 14(a): energy reduction vs theta", run: fig14aDef.run, plan: fig14aDef.plan},
		{ID: "fig14b", Title: "Fig. 14(b): performance improvement vs theta", run: fig14b, plan: planFig14b},
		{ID: "cachesens", Title: "Sec. V-D: storage-cache capacity sensitivity", run: cacheSensDef.run, plan: cacheSensDef.plan},
		{ID: "compile", Title: "Sec. V-A: compilation (scheduling pass) cost", run: compileCost},
		{ID: "oracle", Title: "Oracle prediction upper bound (ablation)", run: oracle, plan: planOracle},
		{ID: "palru", Title: "Power-aware storage-cache replacement (extension)", run: palruCache, plan: planPALRU},
		{ID: "ablations", Title: "Design ablations (ordering, weights, vertical range)", run: ablations},
	}
}

// IDs returns every experiment id in paper order.
func IDs() []string {
	exps := All()
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.ID
	}
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := IDs()
	sort.Strings(ids)
	if sug := strutil.Suggest(id, ids); len(sug) > 0 {
		return Experiment{}, fmt.Errorf("harness: unknown experiment %q (did you mean %s?)",
			id, strings.Join(sug, " or "))
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, ids)
}

// request is the one constructor of an experiment's runs: app under the
// policy and scheme at the config's scale, seed and faults, on the Table
// II cluster deviated by variant (a ParseVariant tag, "" for none). The
// variant is canonicalized (a sweep point restating a default shares the
// unmodified run), so the result is the session's cache key and equals
// what a service-submitted request for the same run normalizes to.
func (c Config) request(app string, kind power.Kind, scheduling bool, variant string) Request {
	if canon, err := canonVariant(variant); err == nil {
		variant = canon
	}
	return Request{
		App:        app,
		Policy:     kind.String(),
		Scheduling: scheduling,
		Scale:      c.Scale,
		Seed:       c.Seed,
		Variant:    variant,
		Faults:     c.Faults.Canon(),
	}
}

// runOne resolves one (app × policy × scheme) configuration under the
// default cluster config through the session cache.
func runOne(ctx context.Context, s *Session, c Config, app string, kind power.Kind, scheduling bool) (*cluster.Result, error) {
	res, _, err := s.run(ctx, c.request(app, kind, scheduling, ""))
	return res, err
}

// baselineSet caches the Default Scheme run for every app.
type baselineSet struct {
	byApp map[string]*cluster.Result
}

func runBaselines(ctx context.Context, s *Session, c Config) (*baselineSet, error) {
	out := &baselineSet{byApp: make(map[string]*cluster.Result, len(c.Apps))}
	for _, app := range c.Apps {
		res, err := runOne(ctx, s, c, app, power.KindDefault, false)
		if err != nil {
			return nil, err
		}
		out.byApp[app] = res
	}
	return out, nil
}

// planBaselines plans the Default Scheme run for every app.
func planBaselines(c Config) []Request {
	out := make([]Request, 0, len(c.Apps))
	for _, app := range c.Apps {
		out = append(out, c.request(app, power.KindDefault, false, ""))
	}
	return out
}

// planCDF plans the default-policy runs of the idle CDFs.
func planCDF(scheduling bool) func(Config) []Request {
	return func(c Config) []Request {
		out := make([]Request, 0, len(c.Apps))
		for _, app := range c.Apps {
			out = append(out, c.request(app, power.KindDefault, scheduling, ""))
		}
		return out
	}
}

// planPolicies plans the baselines plus every managed policy at the given
// scheduling mode (the energy and degradation figures).
func planPolicies(scheduling bool) func(Config) []Request {
	return func(c Config) []Request {
		out := planBaselines(c)
		for _, app := range c.Apps {
			for _, k := range power.ManagedKinds() {
				out = append(out, c.request(app, k, scheduling, ""))
			}
		}
		return out
	}
}
