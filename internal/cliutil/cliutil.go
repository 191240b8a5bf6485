// Package cliutil is the one flag→Request translation layer shared by the
// CLIs (sddsim, sddstables) and the sddsd service daemon. Flag names,
// defaults, and semantics (-faults specs, -timeout deadlines, -workers
// bounds, -journal/-resume) are defined here exactly once, so they cannot
// drift between the binaries or diverge from the HTTP API — every entry
// point funnels into the same canonical harness.Request / harness.Config.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"sdds/internal/cluster"
	"sdds/internal/compilecache"
	"sdds/internal/diag"
	"sdds/internal/fault"
	"sdds/internal/harness"
)

// OpenCompileCache resolves the shared -compile-cache flag value: "" or
// "on" builds an in-process cache, "off" disables caching entirely
// (disabled=true, the inline-compile baseline), and any other value is
// a path to a persistent artifact store shared across invocations.
func OpenCompileCache(mode string) (cache *compilecache.Cache, disabled bool, err error) {
	switch mode {
	case "", "on":
		return compilecache.New(), false, nil
	case "off":
		return nil, true, nil
	default:
		c, err := compilecache.Open(mode)
		if err != nil {
			return nil, false, err
		}
		return c, false, nil
	}
}

// RunFlags are the single-run flags (sddsim, and the service's defaults):
// one application under one policy on one cluster configuration.
type RunFlags struct {
	App        string
	Policy     string
	Scheduling bool
	Scale      float64
	Procs      int
	IONodes    int
	Delta      int
	Theta      int
	Seed       int64
	Faults     string
	Timeout    time.Duration
	// CompileCache is the -compile-cache mode: "on" (in-process), "off"
	// (inline compile), or a persistent artifact-store path.
	CompileCache string
}

// Register installs the run flags on fs with the Table II defaults.
func (f *RunFlags) Register(fs *flag.FlagSet) {
	def := cluster.DefaultConfig()
	fs.StringVar(&f.App, "app", "hf", "application (hf, sar, astro, apsi, madbench2, wupwise)")
	fs.StringVar(&f.Policy, "policy", "default", "power policy (default, simple, prediction, history, staggered, oracle)")
	fs.BoolVar(&f.Scheduling, "scheduling", false, "enable the compiler-directed scheduling framework")
	fs.Float64Var(&f.Scale, "scale", 1.0, "workload scale factor")
	fs.IntVar(&f.Procs, "procs", def.Procs, "client (compute) nodes")
	fs.IntVar(&f.IONodes, "ionodes", def.Layout.NumNodes, "I/O nodes")
	fs.IntVar(&f.Delta, "delta", def.Compiler.Delta, "vertical reuse range δ")
	fs.IntVar(&f.Theta, "theta", def.Compiler.Theta, "per-node concurrency cap θ (0 = unbounded)")
	fs.Int64Var(&f.Seed, "seed", 1, "simulation seed")
	fs.StringVar(&f.Faults, "faults", "", "deterministic fault-injection spec, e.g. 'read=0.01,spinup-fail=0.2,seed=7' (empty = no injection)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "wall-clock deadline for the run (0 = none)")
	fs.StringVar(&f.CompileCache, "compile-cache", "on", "compile-artifact cache: on, off, or a persistent JSONL store path")
}

// Request translates the parsed flags into the canonical normalized
// harness.Request — the same struct the HTTP API accepts — with
// "did you mean" validation for app, policy, and fault-spec typos.
func (f *RunFlags) Request() (harness.Request, error) {
	theta := f.Theta
	if theta == 0 {
		theta = -1 // flag 0 means unbounded; the tag grammar spells it theta=0
	}
	ov := harness.VariantOverrides{
		Procs: f.Procs,
		Nodes: f.IONodes,
		Delta: f.Delta,
		Theta: theta,
	}
	req := harness.Request{
		App:        f.App,
		Policy:     f.Policy,
		Scheduling: f.Scheduling,
		Scale:      f.Scale,
		Seed:       f.Seed,
		Variant:    ov.Tag(),
		Faults:     f.Faults,
		TimeoutMS:  f.Timeout.Milliseconds(),
	}
	return req.Normalize()
}

// SweepFlags are the experiment-sweep flags (sddstables, sddsd): the
// harness config scope plus the worker pool and the crash-safe journal.
type SweepFlags struct {
	Scale   float64
	Seed    int64
	Apps    string
	Faults  string
	Workers int
	Timeout time.Duration
	Journal string
	Resume  bool
	// CompileCache is the -compile-cache mode: "on" (in-process), "off"
	// (inline compile), or a persistent artifact-store path.
	CompileCache string
}

// Register installs the sweep flags on fs.
func (f *SweepFlags) Register(fs *flag.FlagSet) {
	fs.Float64Var(&f.Scale, "scale", 1.0, "workload scale factor")
	fs.Int64Var(&f.Seed, "seed", 1, "simulation seed")
	fs.StringVar(&f.Apps, "apps", "", "comma-separated application subset (default: all six)")
	fs.StringVar(&f.Faults, "faults", "", "deterministic fault-injection spec, e.g. 'read=0.01,net-drop=0.005,seed=7' (empty = no injection)")
	fs.IntVar(&f.Workers, "workers", 0, "concurrent cluster simulations (0 = GOMAXPROCS)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "per-run wall-clock deadline (0 = none); a run exceeding it fails with a deadline error")
	fs.StringVar(&f.Journal, "journal", "", "append every completed run to this crash-safe JSONL journal")
	fs.BoolVar(&f.Resume, "resume", false, "with -journal: reload its intact entries and simulate only the missing runs")
	fs.StringVar(&f.CompileCache, "compile-cache", "on", "compile-artifact cache: on, off, or a persistent JSONL store path")
}

// OpenCompileCache resolves the sweep's -compile-cache flag.
func (f *SweepFlags) OpenCompileCache() (*compilecache.Cache, bool, error) {
	return OpenCompileCache(f.CompileCache)
}

// Config validates the parsed flags and returns the harness config scope.
// Every name-shaped flag fails here, before anything simulates.
func (f *SweepFlags) Config() (harness.Config, error) {
	cfg := harness.Config{Scale: f.Scale, Seed: f.Seed}
	if f.Faults != "" {
		fc, err := fault.ParseSpec(f.Faults)
		if err != nil {
			return harness.Config{}, err
		}
		cfg.Faults = fc
	}
	if f.Apps != "" {
		cfg.Apps = strings.Split(f.Apps, ",")
		for i := range cfg.Apps {
			cfg.Apps[i] = strings.TrimSpace(cfg.Apps[i])
		}
	}
	if err := cfg.Validate(); err != nil {
		return harness.Config{}, err
	}
	return cfg, nil
}

// OpenJournal opens the journal the flags name (nil when -journal is
// unset). -resume without -journal is rejected here, and a journal path
// naming a directory is rejected by the store, each with a clear error —
// neither silently runs uncached.
func (f *SweepFlags) OpenJournal() (*harness.Journal, error) {
	return f.OpenJournalWith(nil)
}

// OpenJournalWith is OpenJournal with structured logging on the opened
// store (resume recovery, torn-tail truncation).
func (f *SweepFlags) OpenJournalWith(log *slog.Logger) (*harness.Journal, error) {
	if f.Resume && f.Journal == "" {
		return nil, errors.New("-resume requires -journal")
	}
	if f.Journal == "" {
		return nil, nil
	}
	return harness.OpenJournalWith(f.Journal, f.Resume, log)
}

// DiagFlags are the shared diagnostics flags (sddsim, sddstables, sddsd):
// the capture directory, the slow-run watchdog multiplier, and the
// structured-log destination. Defined once so the trigger semantics and
// flag spellings cannot drift between binaries.
type DiagFlags struct {
	CaptureDir string
	Watchdog   float64
	Log        string
}

// Register installs the diagnostics flags on fs.
func (f *DiagFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.CaptureDir, "capture-dir", "",
		"capture failing, timed-out, panicking, and watchdog-flagged runs as diagnostics bundles in this directory (empty = capture off)")
	fs.Float64Var(&f.Watchdog, "watchdog", 4,
		"with -capture-dir: capture runs slower than this multiple of the rolling median run time (<=0 disarms the watchdog)")
	fs.StringVar(&f.Log, "log", "",
		"structured JSON log destination: 'stderr' or a file path (empty = logging off)")
}

// NewLogger resolves the -log flag: a nil logger when unset, stderr or an
// append-mode file otherwise. The returned close function flushes the
// file destination (a no-op for stderr); call it on exit.
func (f *DiagFlags) NewLogger() (*slog.Logger, func() error, error) {
	noop := func() error { return nil }
	switch f.Log {
	case "":
		return nil, noop, nil
	case "stderr", "-":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), noop, nil
	default:
		file, err := os.OpenFile(f.Log, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, noop, fmt.Errorf("-log: %w", err)
		}
		return slog.New(slog.NewJSONHandler(file, nil)), file.Close, nil
	}
}

// NewRecorder resolves the capture flags: a nil recorder (capture off)
// when -capture-dir is unset.
func (f *DiagFlags) NewRecorder(log *slog.Logger) (*diag.Recorder, error) {
	if f.CaptureDir == "" {
		return nil, nil
	}
	return diag.NewRecorder(diag.Options{
		Dir:            f.CaptureDir,
		SlowMultiplier: f.Watchdog,
		Log:            log,
	})
}
