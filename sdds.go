// Package sdds is the public API of the reproduction of Zhang, Liu &
// Kandemir, "Software-Directed Data Access Scheduling for Reducing Disk
// Energy Consumption" (ICDCS 2012).
//
// The implementation lives in internal/ packages; this facade re-exports
// the surfaces a downstream user composes:
//
//   - the data access scheduler of §IV (Access, Scheduler, Schedule) with
//     I/O-node signatures (Signature, Layout);
//   - the loop-nest program representation the compiler side consumes
//     (Program, Nest, Stmt) and the full compiler pass (Compile);
//   - the simulated cluster and the four §II power policies, for running
//     whole applications end-to-end (Run, ClusterConfig, PolicyConfig);
//   - the six Table III workloads and the evaluation harness that
//     regenerates every table and figure of §V.
//
// Quickstart:
//
//	layout := sdds.Layout{NumNodes: 8, StripeSize: 64 << 10}
//	s, _ := sdds.NewScheduler(sdds.SchedulerParams{
//		NumSlots: 100, NumNodes: 8, Delta: 20, Theta: 4,
//	})
//	schedule, _ := s.Schedule([]*sdds.Access{{
//		ID: 1, Proc: 0, Begin: 0, End: 9, Length: 1,
//		Sig: layout.SignatureFor(0, 256<<10), Orig: 9,
//	}})
//	point, _ := schedule.PointOf(1)
//
// See the examples/ directory for complete programs.
package sdds

import (
	"context"
	"io"

	"sdds/internal/cluster"
	"sdds/internal/compiler"
	"sdds/internal/core"
	"sdds/internal/harness"
	"sdds/internal/loop"
	"sdds/internal/power"
	"sdds/internal/stripe"
	"sdds/internal/workloads"
)

// Scheduling (the paper's contribution, §IV).
type (
	// Access is one I/O call with its slack window and signature.
	Access = core.Access
	// SchedulerParams configures the scheduling algorithms (δ, θ, ...).
	SchedulerParams = core.Params
	// Scheduler runs the basic/extended/θ-constrained algorithms.
	Scheduler = core.Scheduler
	// Schedule holds scheduling points and per-process tables.
	Schedule = core.Schedule
	// ScheduleEntry is one row of a process's scheduling table.
	ScheduleEntry = core.Entry
)

// Striping and signatures (§II, §IV-B).
type (
	// Layout is round-robin file striping over I/O nodes.
	Layout = stripe.Layout
	// Signature is the I/O-node bit vector with the distance metric.
	Signature = stripe.Signature
)

// Program representation and the compiler pass (§IV-A, Fig. 4).
type (
	// Program is a parallel application as loop nests over files.
	Program = loop.Program
	// Nest is one loop nest.
	Nest = loop.Nest
	// Stmt is a statement in a nest body.
	Stmt = loop.Stmt
	// Affine is an affine byte-region descriptor.
	Affine = loop.Affine
	// CompileOptions parameterizes the compiler pass.
	CompileOptions = compiler.Options
	// CompileResult is the pass output (slacks, accesses, schedule).
	CompileResult = compiler.Result
	// TableFile is the serialized per-process scheduling-table bundle the
	// compiler emits and the runtime scheduler loads (Fig. 4).
	TableFile = compiler.TableFile
)

// Whole-system simulation (§III, §V).
type (
	// ClusterConfig describes the simulated system of Fig. 1.
	ClusterConfig = cluster.Config
	// RunResult carries the measurements of one run.
	RunResult = cluster.Result
	// PolicyConfig selects and tunes a §II power policy.
	PolicyConfig = power.Config
	// PolicyKind identifies a power-management mechanism.
	PolicyKind = power.Kind
	// Workload is one of the six Table III applications.
	Workload = workloads.Spec
	// Experiment regenerates one paper table or figure.
	Experiment = harness.Experiment
	// HarnessConfig scopes a harness run.
	HarnessConfig = harness.Config
	// ExperimentResult is one experiment's rendered table.
	ExperimentResult = harness.Result
)

// The canonical run submission model and persistent results (PR 6).
type (
	// Request is the one JSON-serializable description of a cluster run —
	// the same model sddsim flags, sddstables plans, and the sddsd HTTP
	// service all reduce to. Normalize it, then Key()/ContentKey() name
	// the run for caching and the content-addressed store.
	Request = harness.Request
	// RunRecord is the portable, JSON-stable mirror of RunResult that the
	// journal and the service persist and return.
	RunRecord = harness.RunRecord
	// Journal is the crash-safe content-addressed store of completed runs
	// (append-only JSONL; survives restarts; torn tails tolerated).
	Journal = harness.Journal
)

// Parallel experiment execution (the Session API).
type (
	// Session owns a run cache and a bounded worker pool: it plans every
	// distinct cluster configuration an experiment batch needs, simulates
	// each exactly once (concurrent callers share in-flight runs), and
	// reports progress. Create one per batch with NewSession and run
	// experiments through Session.Run.
	Session = harness.Session
	// SessionOptions configures NewSession (worker bound, progress hook).
	SessionOptions = harness.SessionOptions
	// Progress is one run-level progress event.
	Progress = harness.Progress
	// ProgressFunc observes session progress.
	ProgressFunc = harness.ProgressFunc
)

// Power policy kinds (§II).
const (
	PolicyDefault    = power.KindDefault
	PolicySimple     = power.KindSimple
	PolicyPredictive = power.KindPredictive
	PolicyHistory    = power.KindHistory
	PolicyStaggered  = power.KindStaggered
	PolicyOracle     = power.KindOracle // upper bound: replays a Default Scheme pass's true idle gaps
)

// NewScheduler validates params and returns a data access scheduler.
func NewScheduler(p SchedulerParams) (*Scheduler, error) { return core.NewScheduler(p) }

// DefaultSchedulerParams returns the Table II algorithm parameters (δ=20,
// θ=4) for the given problem size.
func DefaultSchedulerParams(numSlots, numNodes int) SchedulerParams {
	return core.DefaultParams(numSlots, numNodes)
}

// DefaultLayout returns the Table II layout: 8 I/O nodes, 64 KB stripes.
func DefaultLayout() Layout { return stripe.DefaultLayout() }

// Compile runs the full compiler pass of Fig. 4: slack analysis
// (polyhedral or profiling) followed by data access scheduling.
func Compile(p *Program, opts CompileOptions) (*CompileResult, error) {
	return compiler.Compile(p, opts)
}

// CompileContext is Compile with cancellation at the pass's phase
// boundaries.
func CompileContext(ctx context.Context, p *Program, opts CompileOptions) (*CompileResult, error) {
	return compiler.CompileContext(ctx, p, opts)
}

// DefaultCompileOptions returns Table II algorithm parameters over the
// default layout for the given process count.
func DefaultCompileOptions(procs int) CompileOptions { return compiler.DefaultOptions(procs) }

// ReadTables parses a serialized scheduling-table bundle.
func ReadTables(r io.Reader) (*TableFile, error) { return compiler.ReadTables(r) }

// Run executes a program on the simulated cluster.
func Run(p *Program, cfg ClusterConfig) (*RunResult, error) { return cluster.Run(p, cfg) }

// RunContext is Run with prompt cancellation: the discrete-event loop
// polls ctx and aborts with its error when cancelled.
func RunContext(ctx context.Context, p *Program, cfg ClusterConfig) (*RunResult, error) {
	return cluster.RunContext(ctx, p, cfg)
}

// NewSession returns a parallel experiment engine with its own run cache.
// A zero SessionOptions uses GOMAXPROCS workers and no progress hook.
func NewSession(o SessionOptions) *Session { return harness.NewSession(o) }

// OpenJournal opens (resume=true) or truncates (resume=false) a
// persistent run store at path. Attach it via SessionOptions.Journal.
func OpenJournal(path string, resume bool) (*Journal, error) {
	return harness.OpenJournal(path, resume)
}

// NewRunRecord snapshots a run result into its portable stored form.
func NewRunRecord(res *RunResult) RunRecord { return harness.NewRunRecord(res) }

// DefaultClusterConfig returns the Table II system configuration.
func DefaultClusterConfig() ClusterConfig { return cluster.DefaultConfig() }

// Workloads returns the six Table III applications in paper order.
func Workloads() []Workload { return workloads.All() }

// WorkloadByName returns one application generator.
func WorkloadByName(name string) (Workload, error) { return workloads.ByName(name) }

// Experiments returns every paper table/figure experiment in order.
func Experiments() []Experiment { return harness.All() }

// ExperimentByID returns one experiment (e.g. "fig12c").
func ExperimentByID(id string) (Experiment, error) { return harness.ByID(id) }
