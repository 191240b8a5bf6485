// Package compiler is the "optimizing compiler" of Fig. 4: it chains access
// slack determination (polyhedral analysis for affine programs, the
// profiling tool otherwise) with data access scheduling (internal/core) and
// emits the per-process scheduling tables the runtime data access scheduler
// loads. It corresponds to the disk-power-optimization passes the paper
// implemented in the Phoenix infrastructure.
package compiler

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"sdds/internal/core"
	"sdds/internal/loop"
	"sdds/internal/polyhedral"
	"sdds/internal/stripe"
	"sdds/internal/trace"
)

// Options configures a compilation.
type Options struct {
	// Procs is the number of application processes (client nodes).
	Procs int
	// Layout is the file striping over I/O nodes (signatures derive from
	// it).
	Layout stripe.Layout
	// Delta is the vertical reuse range δ (Table II default 20).
	Delta int
	// Theta is the per-node concurrency cap θ (Table II default 4; 0
	// disables).
	Theta int
	// SlotBytes estimates how many I/O bytes fit in one scheduling slot;
	// accesses larger than it get proportionally larger lengths (the
	// extended algorithm, §IV-B2). Zero gives every access length 1.
	SlotBytes int64
	// MaxAdvance caps how many slots before its original point an access
	// may be scheduled (slack Begin is clamped to Orig − MaxAdvance). It
	// bounds the residency of prefetched data in the client buffer — the
	// paper's runtime "only performs data accesses scheduled at much
	// earlier iterations" against a bounded collective cache. Zero leaves
	// slacks unclamped.
	MaxAdvance int
	// CoalesceD groups d > 1 consecutive iterations into one scheduling
	// unit before running the scheduler (§IV-A: "if a loop is very large
	// ... we consider d iterations as one unit to measure slacks"),
	// shrinking the slot space and the scheduling tables by d×. Scheduled
	// points are mapped back to full-resolution slots on output. 0 and 1
	// mean no coalescing.
	CoalesceD int
	// ForceProfile uses the profiling tool even for affine programs.
	ForceProfile bool
	// Order / NoWeights / RandomTies pass through to the scheduler (for
	// ablations).
	Order      core.OrderKind
	NoWeights  bool
	RandomTies func(n int) int
}

// DefaultOptions returns Table II algorithm parameters over the default
// layout for the given process count.
func DefaultOptions(procs int) Options {
	return Options{
		Procs:      procs,
		Layout:     stripe.DefaultLayout(),
		Delta:      20,
		Theta:      4,
		SlotBytes:  256 << 10,
		MaxAdvance: 40, // 2δ
	}
}

// Validate reports the first option problem, or nil.
func (o Options) Validate() error {
	if o.Procs <= 0 {
		return fmt.Errorf("compiler: procs %d must be positive", o.Procs)
	}
	if o.SlotBytes < 0 {
		return fmt.Errorf("compiler: SlotBytes %d must be ≥ 0", o.SlotBytes)
	}
	if o.MaxAdvance < 0 {
		return fmt.Errorf("compiler: MaxAdvance %d must be ≥ 0", o.MaxAdvance)
	}
	if o.CoalesceD < 0 {
		return fmt.Errorf("compiler: CoalesceD %d must be ≥ 0", o.CoalesceD)
	}
	return o.Layout.Validate()
}

// Result is a finished compilation.
type Result struct {
	// Program is the compiled program.
	Program *loop.Program
	// Slacks holds the analyzed read slacks, index-aligned with Accesses,
	// strictly ascending in (slot, proc, nest, stmt).
	Slacks []loop.Slack
	// Accesses are the scheduler inputs (ID = index).
	Accesses []*core.Access
	// Schedule is the computed schedule with per-process tables.
	Schedule *core.Schedule
	// UsedProfiler reports whether the profiling path ran (non-affine
	// program or ForceProfile).
	UsedProfiler bool
	// CompileTime is the wall-clock duration of the whole pass (or of the
	// artifact restore, for results rehydrated from the compile cache).
	CompileTime time.Duration

	procs  int
	params core.Params
}

// coalesceFactor normalizes CoalesceD: 0 and 1 both mean no coalescing.
func coalesceFactor(opts Options) int {
	if opts.CoalesceD < 1 {
		return 1
	}
	return opts.CoalesceD
}

// fullSlack returns an access's slack window in full-resolution slots,
// with the MaxAdvance clamp applied — the window both the initial access
// build and the Rescale re-anchoring reason in.
func fullSlack(s loop.Slack, opts Options) (begin, end int) {
	begin = s.Begin
	if opts.MaxAdvance > 0 && begin < s.End-opts.MaxAdvance {
		begin = s.End - opts.MaxAdvance
	}
	return begin, s.End
}

// buildAccesses converts analyzed slacks into scheduler inputs (ID =
// index): the accesses live in one slab and their signatures share one
// word array. It is shared between the live compile pass and the artifact
// restore path so both derive identical accesses from identical slacks.
func buildAccesses(slacks []loop.Slack, opts Options, d int) []*core.Access {
	slab := make([]core.Access, len(slacks))
	accesses := make([]*core.Access, len(slacks))
	w := stripe.Words(opts.Layout.NumNodes)
	words := make([]uint64, len(slacks)*w)
	for i, s := range slacks {
		length := 1
		if opts.SlotBytes > 0 && s.Inst.Length > opts.SlotBytes {
			length = int((s.Inst.Length + opts.SlotBytes - 1) / opts.SlotBytes)
		}
		if d > 1 {
			// A coalesced slot carries d iterations' worth of I/O.
			length = (length + d - 1) / d
		}
		begin, end := fullSlack(s, opts)
		slab[i] = core.Access{
			ID:     i,
			Proc:   s.Inst.Proc,
			Begin:  begin / d,
			End:    end / d,
			Length: length,
			Sig:    opts.Layout.SignatureInto(words[i*w:], s.Inst.Offset, s.Inst.Length),
			Orig:   end / d,
		}
		accesses[i] = &slab[i]
	}
	return accesses
}

// schedParams derives the scheduler parameters from the options and the
// coalesced slot count — shared by compile and restore.
func schedParams(opts Options, coalesced int) core.Params {
	return core.Params{
		NumSlots:   coalesced,
		NumNodes:   opts.Layout.NumNodes,
		Delta:      opts.Delta,
		Theta:      opts.Theta,
		Order:      opts.Order,
		NoWeights:  opts.NoWeights,
		RandomTies: opts.RandomTies,
	}
}

// Compile runs the full pass.
func Compile(p *loop.Program, opts Options) (*Result, error) {
	return CompileContext(context.Background(), p, opts)
}

// CompileContext runs the full pass, honouring cancellation at the phase
// boundaries (before slack analysis and before scheduling — the two
// dominant costs of the pass).
func CompileContext(ctx context.Context, p *loop.Program, opts Options) (*Result, error) {
	start := time.Now() //sddsvet:ignore detflow -- wall-clock compile cost for CompileTime reporting, never feeds simulated results
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var (
		slacks       []loop.Slack
		usedProfiler bool
		err          error
	)
	if opts.ForceProfile || !p.IsAffine() {
		slacks, err = trace.Profile(p, opts.Procs)
		usedProfiler = true
	} else {
		slacks, err = polyhedral.Analyze(p, opts.Procs)
		var na *polyhedral.ErrNonAffine
		if errors.As(err, &na) {
			slacks, err = trace.Profile(p, opts.Procs)
			usedProfiler = true
		}
	}
	if err != nil {
		return nil, fmt.Errorf("compiler: slack analysis: %w", err)
	}

	numSlots := p.Slots(opts.Procs)
	d := coalesceFactor(opts)
	coalesced := (numSlots + d - 1) / d
	accesses := buildAccesses(slacks, opts, d)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	params := schedParams(opts, coalesced)
	sched, err := core.NewScheduler(params)
	if err != nil {
		return nil, err
	}
	schedule, err := sched.Schedule(accesses)
	if err != nil {
		return nil, fmt.Errorf("compiler: scheduling: %w", err)
	}
	if d > 1 {
		// Map the coalesced schedule back to full-resolution slots so the
		// runtime scheduler and the executor keep a single slot space.
		schedule = schedule.Rescale(d, numSlots, func(id int) (begin, end int) {
			return fullSlack(slacks[id], opts)
		})
	}

	return &Result{
		Program:      p,
		Slacks:       slacks,
		Accesses:     accesses,
		Schedule:     schedule,
		UsedProfiler: usedProfiler,
		CompileTime:  time.Since(start), //sddsvet:ignore detflow -- wall-clock compile cost for CompileTime reporting, never feeds simulated results
		procs:        opts.Procs,
		params:       params,
	}, nil
}

// AccessFor maps a dynamic read instance back to its access id by binary
// search of the slacks.
func (r *Result) AccessFor(inst loop.IOInstance) (int, bool) {
	return slices.BinarySearchFunc(r.Slacks, inst, compareInstance)
}

// compareInstance orders a slack's instance against inst by (slot, proc,
// nest, stmt), the order of Result.Slacks.
func compareInstance(s loop.Slack, inst loop.IOInstance) int {
	x := s.Inst
	return cmp.Or(cmp.Compare(x.Slot, inst.Slot), cmp.Compare(x.Proc, inst.Proc),
		cmp.Compare(x.Nest, inst.Nest), cmp.Compare(x.Stmt, inst.Stmt))
}

// WriterSlotOf returns the producer slot of an access (-1 when the data
// pre-exists on disk).
func (r *Result) WriterSlotOf(accessID int) int {
	if accessID < 0 || accessID >= len(r.Slacks) {
		return -1
	}
	return r.Slacks[accessID].WriterSlot
}

// InstanceOf returns the dynamic instance of an access.
func (r *Result) InstanceOf(accessID int) (loop.IOInstance, bool) {
	if accessID < 0 || accessID >= len(r.Slacks) {
		return loop.IOInstance{}, false
	}
	return r.Slacks[accessID].Inst, true
}
